// EXPLAIN / EXPLAIN ANALYZE rendering — the single plan-formatting path.
//
// The optimizer's left-deep plan (core::Plan) already carries every
// estimate the cost model used: per-access kind, bind edges, SQR usage,
// est_rows / est_bind_values / est_transactions / est_calls. EXPLAIN
// renders exactly that; EXPLAIN ANALYZE executes the query first and shows
// each access's measured actuals next to its estimates — rows, calls and
// transactions from the executor's per-access counts, retries and waste
// from the access's spend record — then reports the per-access transaction
// q-error so an operator can see precisely where (and by how much) the
// statistics mispriced the plan. None of it needs a trace.
//
// This lives in its own obs sub-target (payless_obs_explain) because it
// depends on core/sql/stats, which sit ABOVE the base obs library in the
// layering; the base library (metrics, traces, ledger, accuracy) stays
// dependency-free so market can link it.
#ifndef PAYLESS_OBS_EXPLAIN_H_
#define PAYLESS_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.h"
#include "obs/cost_ledger.h"
#include "obs/latency.h"
#include "sql/bound_query.h"
#include "stats/estimator.h"

namespace payless::obs {

/// Measured execution facts for one plan access, filled by the executor.
/// An access never reached after a mid-flight error has present == false.
struct AccessActuals {
  bool present = false;          // the access ran
  int64_t rows = 0;              // rows the access handed to the join
  int64_t calls = 0;             // delivered market calls
  int64_t transactions = 0;      // transactions billed to delivered calls
  int64_t rows_from_market = 0;  // summed true result sizes (num_records)
  /// The access's purchase: every call it got evaluated (lost responses
  /// included, so waste lives here) and their retries.
  SpendRecord spend;
};

/// Renders the bare plan (header + one line per access with its estimates).
std::string RenderPlan(const core::Plan& plan, const sql::BoundQuery& query);

/// Optional context for the full EXPLAIN rendering; every field may be
/// left unset and its section is omitted.
struct ExplainContext {
  const core::PlanningCounters* counters = nullptr;
  /// Adds per-market-table statistics-maturity lines (buckets, feedbacks,
  /// believed cardinality).
  const stats::StatsRegistry* stats = nullptr;
  /// ANALYZE: per-access actuals, one entry per plan access. Enables the
  /// "actual:" lines and q-errors.
  const std::vector<AccessActuals>* actuals = nullptr;
  /// ANALYZE: the query's total billed transactions (< 0 omits the line).
  int64_t transactions_spent = -1;
  /// ANALYZE + savings accounting: estimated cost of the counterfactual
  /// (store-less, uncached) plan and the realized savings delta. Both
  /// rendered only when counterfactual_transactions >= 0.
  int64_t counterfactual_transactions = -1;
  int64_t savings_transactions = 0;
  /// ANALYZE: end-to-end wall latency in microseconds (< 0 omits the
  /// footer) and — when set — its stage decomposition: an array of
  /// kNumQueryStages entries indexed by QueryStage. The footer folds the
  /// wall stages into plan (parse/plan + cache probe), market (fetch) and
  /// eval (local eval + merge).
  int64_t latency_us = -1;
  const int64_t* stage_micros = nullptr;
};

/// Full EXPLAIN [ANALYZE] text: RenderPlan plus planning counters, stats
/// maturity and — when `context.actuals` is set — per-access actuals with
/// the estimated-vs-actual transaction q-error.
std::string RenderExplain(const core::Plan& plan, const sql::BoundQuery& query,
                          const ExplainContext& context);

}  // namespace payless::obs

#endif  // PAYLESS_OBS_EXPLAIN_H_
