// Plan execution (Fig. 3, steps 4-9): walks a left-deep plan, buys the
// (remainder-rewritten) REST calls through the client's endpoint router,
// reuses stored tuples from the semantic store, computes bind-join binding
// values from the running join, and offloads the final join/aggregation to
// the local engine.
#ifndef PAYLESS_EXEC_EXECUTION_ENGINE_H_
#define PAYLESS_EXEC_EXECUTION_ENGINE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/plan.h"
#include "exec/local_eval.h"
#include "market/data_market.h"
#include "obs/explain.h"
#include "semstore/remainder.h"
#include "semstore/semantic_store.h"
#include "sql/bound_query.h"
#include "stats/estimator.h"
#include "storage/database.h"

namespace payless::federation {
class EndpointRouter;
}  // namespace payless::federation

namespace payless::exec {

struct ExecConfig {
  /// Rewrite accesses against the semantic store at execution time. Must
  /// match the optimizer's setting for faithful cost behaviour.
  bool use_sqr = true;
  /// Consistency horizon for reusing stored views (§4.3).
  int64_t min_epoch = std::numeric_limits<int64_t>::min();
  semstore::RemainderOptions remainder;
  /// In-flight window for one access's REST calls: a bind join's
  /// per-binding-value calls and an access's remainder calls go through
  /// the connector's CallScheduler as one batch, up to this many at a time
  /// (0 = default window of 16; 1 = strictly serial). Bought rows merge in
  /// call order after the rows the store held, so rows, row order and
  /// billed transactions are identical to serial execution.
  size_t max_parallel_calls = 0;
  /// Absolute per-query deadline forwarded to every market call. Calls
  /// past it fail with kDeadlineExceeded instead of retrying.
  market::Clock::time_point deadline = market::kNoDeadline;
  /// Observability context: tenant ledger attribution for every billed
  /// transaction, plus the trace the per-access and per-call spans land in
  /// (`obs.parent_span` is the caller's enclosing span — PayLess sets it to
  /// its "execute" span). Execute points each access's copy at that
  /// access's spend record; Buy records into `obs.spend` as given.
  /// Default-constructed = inert.
  market::CallObs obs;
};

struct ExecStats {
  int64_t calls = 0;
  int64_t transactions = 0;
  int64_t rows_from_market = 0;
  int64_t rows_from_cache = 0;
  /// Sibling calls skipped unissued because another call of the same
  /// access exhausted its retries (fail-fast: no money is spent on a
  /// result that can no longer be delivered).
  int64_t calls_cancelled = 0;
};

class ExecutionEngine {
 public:
  /// `router` is the client's market boundary (a single market is its
  /// one-endpoint case). Each access's calls start at the connector of its
  /// `buy_site` annotation, and when that endpoint dies mid-access (breaker
  /// open, retries exhausted) the calls that delivered nothing there are
  /// re-issued at the next-cheapest live endpoint. Calls that DID deliver
  /// stay billed where they ran — failover never buys a row twice.
  ExecutionEngine(const catalog::Catalog* catalog, storage::Database* local_db,
                  federation::EndpointRouter* router,
                  semstore::SemanticStore* store, stats::StatsRegistry* stats)
      : catalog_(catalog),
        local_db_(local_db),
        router_(router),
        store_(store),
        stats_(stats) {}

  /// Executes `plan` for `query`; returns the final result table. Market
  /// spend accrues on the endpoints' billing meters; `exec_stats`
  /// (optional) receives per-query counters, and `actuals` (optional) one
  /// entry per plan access: its counts and its purchase's spend record,
  /// kept also when the query fails mid-flight.
  Result<storage::Table> Execute(
      const sql::BoundQuery& query, const core::Plan& plan,
      const ExecConfig& config, ExecStats* exec_stats = nullptr,
      std::vector<obs::AccessActuals>* actuals = nullptr);

  /// Buys `calls` on `def`'s dataset through the same path every access
  /// takes: one scheduler batch starting at `buy_site`, cancelling unissued
  /// siblings after a failure and failing the undelivered calls over to
  /// the next-cheapest live endpoint. The rows reach only the connectors'
  /// listeners (the semantic store); `exec_stats` counts the delivered
  /// calls and their spend. Batch prefetch buys its merged hulls here.
  Status Buy(const catalog::TableDef& def, const std::string& buy_site,
             std::vector<market::RestCall> calls, const ExecConfig& config,
             ExecStats* exec_stats);

 private:
  /// Retrieves the rows for one access, spending money as needed. A bind
  /// access reads its binding values from `joined`, the running join of
  /// the accesses before it. `access_index` is the access's position in the
  /// plan; it tags the access span. `actuals` receives the access's counts,
  /// and its spend record the access's calls; neither it nor `exec_stats`
  /// is null.
  Result<storage::Table> FetchRelation(const sql::BoundQuery& query,
                                       const core::AccessSpec& access,
                                       size_t access_index,
                                       const JoinedRows& joined,
                                       const ExecConfig& config,
                                       ExecStats* exec_stats,
                                       obs::AccessActuals* actuals);

  const catalog::Catalog* catalog_;
  storage::Database* local_db_;
  federation::EndpointRouter* router_;
  semstore::SemanticStore* store_;
  stats::StatsRegistry* stats_;
};

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_EXECUTION_ENGINE_H_
