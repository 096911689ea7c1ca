// The PayLess system facade (Fig. 2 / Fig. 3): one instance per data buyer.
//
// Wires together the parser, the learning optimizer, the execution engine,
// the semantic store, the feedback statistics and the endpoint router (the
// client's market boundary: one connector per market endpoint, a single
// market being the one-endpoint case), and exposes the SQL interface end
// users see. Construction registers the connector listener that implements
// steps 5.3 (store every call + result) and 5.4 (statistics feedback)
// automatically, so the learning loop is always closed.
#ifndef PAYLESS_EXEC_PAYLESS_H_
#define PAYLESS_EXEC_PAYLESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "durability/durability.h"
#include "exec/execution_engine.h"
#include "federation/endpoint_router.h"
#include "federation/market_endpoint.h"
#include "federation/placement.h"
#include "market/data_market.h"
#include "obs/accuracy.h"
#include "obs/http_exposition.h"
#include "obs/observability.h"
#include "obs/savings_accountant.h"
#include "semstore/semantic_store.h"
#include "sql/bound_query.h"
#include "stats/estimator.h"
#include "storage/database.h"

namespace payless::exec {

/// Result-freshness policy (§4.3). Datasets in Azure Marketplace are
/// append-only, so kWeak is the paper's default; the others matter once
/// in-place updates exist.
enum class ConsistencyLevel {
  kWeak,   // reuse every stored result
  kXWeek,  // reuse results retrieved within the last X weeks
  kFull,   // never reuse: always go to the market
};

struct PayLessConfig {
  core::OptimizerOptions optimizer;
  ConsistencyLevel consistency = ConsistencyLevel::kWeak;
  int64_t consistency_weeks = 4;  // the X of kXWeek
  /// Which statistic backs the optimizer: the learning multidimensional
  /// feedback histogram (ISOMER role, default) or frozen uniform estimates
  /// (the §4.3 cold start, never refined).
  stats::StatsKind stats_kind = stats::StatsKind::kFeedbackHistogram;
  /// In-flight window for one access's REST calls: a bind join's
  /// per-binding-value calls (and remainder calls) go out up to this many
  /// at a time on the querying thread, merged deterministically in
  /// binding-value order. 0 = a window of 16, 1 = strictly serial. Rows
  /// and billing are identical either way.
  size_t max_parallel_calls = 0;
  /// Reuse plans of repeated identical parameterized queries (skips the DP
  /// entirely). Invalidation is drift-based and region-scoped: a template
  /// re-optimizes only when an estimate was materially wrong (see
  /// qerror_invalidation_threshold) over a region its plan was priced on.
  bool enable_plan_cache = true;
  /// Record (estimated, actual) pairs at the feedback point into per-table
  /// q-error histograms. Observability only: drift invalidation runs
  /// either way.
  bool enable_accuracy_tracking = true;
  /// A harvest whose estimate misses by a q-error above this threshold
  /// ticks the drift epoch and invalidates the cached plan templates that
  /// read the harvested table over a region overlapping the box the
  /// feedback changed (they were priced with estimates that have since been
  /// materially corrected). <= 0 disables drift invalidation entirely.
  double qerror_invalidation_threshold = 2.0;
  /// Resilience policy of the market connector: retries with capped
  /// exponential backoff + jitter, per-call timeout, per-dataset circuit
  /// breaker. Inert against a fault-free market.
  market::RetryPolicy retry;
  /// Per-query wall-clock budget (0 = unbounded). Market calls past the
  /// budget fail with kDeadlineExceeded; the query surfaces the error plus
  /// its spend-so-far in the QueryReport.
  int64_t query_deadline_micros = 0;
  /// Tenant this client spends on behalf of: every billed transaction is
  /// attributed to it in the cost ledger, and the budget governor admits or
  /// rejects queries against its budget.
  std::string tenant = "default";
  /// Shared observability context (metrics + ledger + governor + trace
  /// sink), typically ONE per deployment so all tenants report into the
  /// same ledger. nullptr = the client creates a private context; spend
  /// attribution and metrics still work, they are just per-client.
  obs::Observability* observability = nullptr;
  /// Collect per-query trace spans (parse → optimize → execute → per-access
  /// → per-market-call) into QueryReport::trace and the context's sink.
  /// Metrics and ledger attribution are always on — they are the cheap part.
  bool enable_tracing = true;
  /// Persistence + crash recovery (off when `durability.dir` is empty).
  /// With a directory set, construction first RECOVERS — snapshot + log
  /// replay rebuild what was paid for: the semantic store, the feedback
  /// histograms and the store week — and every subsequent harvest is logged
  /// at the billing point before it is applied, so a process death never
  /// re-buys a durable slab. Plans are re-derived: the plan cache starts
  /// empty, and the drift epoch counts only the replay's ticks. A failed
  /// recovery or log append freezes the disk (durability()->dead(), the
  /// error on /store) while the client keeps serving from memory.
  durability::DurabilityOptions durability;
  /// Price every query's counterfactual (store-less, uncached) plan and
  /// attribute the realized savings into the savings ledger and metrics.
  /// The what-if pass reuses the optimizer on the live statistics against
  /// an empty store — no market calls, no billing, no store mutation — and
  /// its result is cached inside the plan template, so steady-state
  /// serving prices the counterfactual once per template, not per query.
  bool enable_savings_accounting = true;
  /// Multi-market federation (nullable; must outlive the client and hold
  /// at least one endpoint). The client's router is built over these
  /// endpoints when set, else over the `market` constructor argument as the
  /// one endpoint "". Either way the optimizer picks each access's buy-site
  /// against the per-endpoint menus, execution (batch prefetch included)
  /// routes calls there and fails over to the next-cheapest live endpoint
  /// when a breaker opens mid-query, and the savings counterfactual is the
  /// cheapest SINGLE-market plan (a federation's edge over any one endpoint
  /// is attributed under the federation_routing cause). With a federation
  /// the `market` argument is unused.
  federation::FederatedMarket* federation = nullptr;
  /// Retained-slab budget for the semantic store (approx payload bytes);
  /// 0 = unbounded and no placement policy. With a budget, the policy runs
  /// once after every admitted query (once after a whole QueryBatch) and
  /// evicts the cheapest-to-re-buy tables until the store fits. Queries
  /// hold a shared lock from their plan-cache probe through execution and
  /// the pass holds it exclusively; a pass that evicts clears the plan
  /// cache (cached plans may read evicted coverage) and then snapshots
  /// when durability is on.
  int64_t placement_capacity_bytes = 0;
  /// Keep the always-on flight recorder fed: every completed query writes a
  /// compact trace entry (status, latency, stage decomposition, span
  /// summary) into the observability context's fixed ring, and the
  /// scheduler records batch events next to them. Independent of
  /// enable_tracing; costs one ring write per query.
  bool enable_flight_recorder = true;
  /// When non-empty: a failed query or a budget rejection dumps the flight
  /// recorder ring (JSON) to this path, and the ring is armed for the
  /// durability crash path so a hard crash dumps it too. Last writer wins
  /// when several clients share one path.
  std::string flight_recorder_dump_path;
};

/// Everything a query returns besides the rows.
struct QueryReport {
  storage::Table result;
  core::Plan plan;
  /// Rendered plan text. Filled for EXPLAIN / EXPLAIN ANALYZE statements
  /// (the ANALYZE form includes per-access actuals and q-errors) and by
  /// Explain(); empty for plain queries — rendering is not free and most
  /// callers never look at it.
  std::string plan_text;
  core::PlanningCounters counters;
  ExecStats exec;
  /// This query's own billed transactions, lost responses included (so it
  /// can exceed `exec.transactions`, which counts delivered calls).
  int64_t transactions_spent = 0;
  /// Per-dataset breakdown of `transactions_spent`, from the query's own
  /// purchase records (one per plan access): a dataset appears once any of
  /// its calls was evaluated, even at 0 transactions.
  std::map<std::string, int64_t> transactions_by_dataset;
  /// Id of this query in its trace, the trace sink and the flight
  /// recorder, unique within its Observability context (clients sharing
  /// one context never share an id).
  uint64_t query_id = 0;
  /// The query's spend crossed the tenant's soft budget threshold (the
  /// query still ran; only a hard cap rejects).
  bool budget_warning = false;
  /// Savings accounting (when enabled and the counterfactual priced):
  /// estimated transactions of the store-less, uncached baseline plan and
  /// the realized delta vs `transactions_spent`. -1 = not accounted.
  int64_t counterfactual_transactions = -1;
  int64_t savings_transactions = 0;
  /// End-to-end wall latency of this query in microseconds, and its
  /// decomposition by obs::QueryStage. The first obs::kNumWallStages
  /// entries partition `latency_us` (parse/plan, plan-cache probe, fetch,
  /// local eval, merge — small bookkeeping residue aside); the remaining
  /// entries (scheduler admission, market RTT, retry backoff) detail where
  /// the fetch stage went and may overlap each other under parallelism.
  int64_t latency_us = 0;
  int64_t stage_micros[obs::kNumQueryStages] = {};
  /// Structured per-query trace (empty when tracing is disabled): parse,
  /// optimize/plan-cache, execution, per-access and per-market-call spans
  /// with dataset, binding values, transactions and retry/waste attributes.
  std::vector<obs::SpanRecord> trace;
  /// kOk when the query delivered `result`. kUnavailable /
  /// kDeadlineExceeded / kResourceExhausted when execution failed
  /// mid-flight against a flaky market — `result` is then empty but
  /// `exec` / `transactions_spent` still hold the spend-so-far, and
  /// everything already delivered was absorbed by the semantic store, so a
  /// re-issued query does not pay for it again.
  Status error;

  bool ok() const { return error.ok(); }
};

/// One query of a deferred batch.
struct BatchQuery {
  std::string sql;
  std::vector<Value> params;
};

/// Outcome of batch processing.
struct BatchReport {
  /// One per query, in input order: each query's rows and its own report,
  /// exactly as QueryWithReport would have returned it.
  std::vector<QueryReport> reports;
  int64_t transactions_spent = 0;
  /// Number of cross-query region groups whose market data was prefetched
  /// with merged calls (0 = batching found nothing to share).
  size_t merged_groups = 0;
  /// Transactions billed for the prefetch groups, lost responses included,
  /// read from each group's spend record. `transactions_spent` is this
  /// plus every report's own spend.
  int64_t prefetch_transactions = 0;
  /// Prefetch calls skipped because the merged region is not expressible as
  /// one REST call (kBindingViolation / kNotSupported — e.g. a bound
  /// attribute left unconstrained, or a categorical multi-value sub-range).
  /// Expected and harmless: the per-query execution fetches those regions.
  size_t prefetch_skipped_calls = 0;
  /// Prefetch calls no endpoint delivered against a flaky market (retries
  /// exhausted with no live endpoint left to fail over to / deadline / rate
  /// limit). Also harmless for correctness: prefetching is an
  /// optimization, the queries fall back to their own fetch paths.
  size_t prefetch_failed_calls = 0;
};

/// Thread-safety contract: Query / QueryWithReport / Explain may be called
/// concurrently from any number of client threads against one PayLess —
/// the endpoint connectors, billing meters, semantic store, statistics and
/// plan cache all synchronize internally, and per-query spend is counted from
/// the query's own calls (not a meter delta). Setup and administration —
/// LoadLocalTable, SetCurrentWeek, QueryBatch — are single-caller: run them
/// while no queries are in flight.
class PayLess {
 public:
  PayLess(const catalog::Catalog* catalog, const market::DataMarket* market,
          PayLessConfig config);

  PayLess(const PayLess&) = delete;
  PayLess& operator=(const PayLess&) = delete;

  /// Runs one parameterized SQL query end-to-end. Safe to call from many
  /// threads concurrently. Mid-flight market failures (retries exhausted,
  /// deadline, rate limit) surface as that error Status.
  Result<storage::Table> Query(const std::string& sql,
                               const std::vector<Value>& params = {});

  /// Like Query, with the plan, counters and spend attached. Parse, bind
  /// and optimize errors return a plain error Status; an EXECUTION failure
  /// against a flaky market instead returns an OK Result whose report has
  /// `error` set and carries the spend-so-far (so callers can account for
  /// money already billed before the failure).
  Result<QueryReport> QueryWithReport(const std::string& sql,
                                      const std::vector<Value>& params = {});

  /// Optimizes without executing: returns the would-be plan and its
  /// human-readable description (QueryReport::plan_text). Nothing is
  /// billed and nothing is cached — the buyer can inspect the estimated
  /// spend before committing. Also reached by the `EXPLAIN <query>`
  /// statement form; `EXPLAIN ANALYZE` instead goes through Query and DOES
  /// execute (and bill).
  Result<QueryReport> Explain(const std::string& sql,
                              const std::vector<Value>& params = {});

  /// The rendered EXPLAIN text for `sql` — plan, estimates, planning
  /// counters and statistics maturity. Never executes and never spends;
  /// this is what the HTTP exposition endpoint serves for /explain?q=.
  Result<std::string> ExplainText(const std::string& sql,
                                  const std::vector<Value>& params = {});

  /// Multi-query optimization (§7): processes a deferred batch jointly.
  /// The footprints of all queries on each market table are greedily merged
  /// whenever one merged download is estimated cheaper than the individual
  /// remainders (the per-page Eq. 1 rounding makes many small overlapping
  /// fetches costlier than one hull fetch); merged groups are prefetched
  /// into the semantic store, then the queries execute normally — and
  /// mostly for free. Each group's prefetch first passes the tenant's
  /// budget governor with its estimated spend (a refused group is left to
  /// the queries, which meet their own gates), is bought as one scheduler
  /// batch through the executor's failover path like any access, and its
  /// billed spend feeds the tenant's rate window. Falls back to plain
  /// sequential behaviour when merging never pays. Requires SQR to be
  /// enabled.
  Result<BatchReport> QueryBatch(const std::vector<BatchQuery>& batch);

  /// Loads rows into a buyer-side local table (must be declared local in
  /// the catalog).
  Status LoadLocalTable(const std::string& name, const std::vector<Row>& rows);

  /// Advances the wall clock (in weeks) used to stamp stored views and to
  /// compute the X-week consistency horizon.
  void SetCurrentWeek(int64_t week) {
    current_week_.store(week, std::memory_order_relaxed);
  }
  int64_t current_week() const {
    return current_week_.load(std::memory_order_relaxed);
  }

  /// Endpoint 0's billing meter: the single market's meter, or the first
  /// federation endpoint's (the router sums them all).
  const market::BillingMeter& meter() const {
    return router_->connector(0)->meter();
  }
  const semstore::SemanticStore& store() const { return store_; }
  const stats::StatsRegistry& stats() const { return stats_; }
  /// Estimator-accuracy telemetry (q-errors, drift epoch). Always present;
  /// it only accumulates q-error samples while enable_accuracy_tracking is
  /// on, and counts every drift tick.
  const obs::AccuracyTracker& accuracy() const { return accuracy_; }
  const core::PlanCache& plan_cache() const { return plan_cache_; }
  /// Durability manager; nullptr when durability is off. Non-const so
  /// tests/operators can force a snapshot (SnapshotNow).
  durability::DurabilityManager* durability() { return durability_.get(); }
  const durability::DurabilityManager* durability() const {
    return durability_.get();
  }
  /// Endpoint 0's connector (router()->primary()), which the client's
  /// queries really buy through: the single market's connector, or the
  /// first federation endpoint's.
  market::MarketConnector* connector() { return router_->primary(); }
  /// The client's market boundary, never null: one endpoint per federation
  /// endpoint, or the single market as endpoint "".
  federation::EndpointRouter* router() { return router_.get(); }
  const federation::EndpointRouter* router() const { return router_.get(); }
  /// Slab placement policy; nullptr without a capacity budget.
  federation::PlacementPolicy* placement() { return placement_.get(); }
  storage::Database* local_db() { return &local_db_; }
  const catalog::Catalog& catalog() const { return *catalog_; }
  const PayLessConfig& config() const { return config_; }
  /// The observability context this client reports into (the shared one
  /// from the config, or the private default).
  obs::Observability* observability() { return obs_; }
  const obs::Observability& observability() const { return *obs_; }
  const std::string& tenant() const { return config_.tenant; }

  /// Wires this client's introspection surfaces onto an HTTP exposition
  /// server: /explain (plan text for arbitrary SQL), /savings (the savings
  /// ledger), /store (live semantic-store coverage plus durability),
  /// /markets (per-endpoint spend, breaker states, RTT tails, failovers
  /// and slab placement; a single market shows its one endpoint "" under
  /// "federated":false) and /flightrecorder. Histograms are on
  /// /metrics.json. Call before server->Start(); the server must not
  /// outlive this client.
  void RegisterIntrospection(obs::HttpExpositionServer* server);

 private:
  int64_t MinEpoch() const;
  /// Steps 5.3/5.4 of Fig. 3 — the single point where a billed harvest
  /// becomes state (store + statistics feedback + accuracy tracking).
  /// Called by the connector listener for live calls and by the durability
  /// manager's recovery replay, so both paths rebuild identical state.
  void AbsorbHarvest(const catalog::TableDef& def, const Box& region,
                     const std::vector<Row>& rows, int64_t num_records,
                     int64_t epoch);
  /// The optimizer options every plan of this client is made with: the
  /// consistency horizon, kFull's SQR override and the router's buy-site
  /// menu snapshot, stored in `*federation_pricing` (which must outlive the
  /// options).
  core::OptimizerOptions QueryOptimizerOptions(
      core::FederationPricing* federation_pricing) const;
  /// The one EXPLAIN implementation, behind Explain() and the `EXPLAIN`
  /// statement: optimizes and renders the plan without executing, caching
  /// or billing anything.
  Result<QueryReport> ExplainBound(const sql::BoundQuery& bound);
  /// QueryWithReport's body: gate-1 admission and execution, then, when
  /// `tick_placement`, a placement pass after an admitted query.
  /// QueryBatch passes false and runs one pass after its batch.
  Result<QueryReport> AdmitAndRun(const std::string& sql,
                                  const std::vector<Value>& params,
                                  bool tick_placement);
  /// The traced/governed body of AdmitAndRun; `query_id` is already
  /// assigned and admission against the CURRENT spend already passed.
  Result<QueryReport> QueryWithReportImpl(const std::string& sql,
                                          const std::vector<Value>& params,
                                          uint64_t query_id);
  /// One placement pass under placement_mutex_; after an eviction it
  /// clears the plan cache, then snapshots.
  void TickPlacement();

  /// Handles into the metrics registry, resolved once at construction so
  /// the per-query path is pure atomic arithmetic. Spend and calls are not
  /// here: the cost ledger (/ledger) counts them exactly, batch prefetch
  /// included.
  struct MetricHandles {
    obs::Counter* queries = nullptr;
    obs::Counter* query_failures = nullptr;
    obs::Counter* budget_rejections = nullptr;
    obs::Counter* budget_warnings = nullptr;
    obs::Counter* rows_from_market = nullptr;
    obs::Counter* rows_from_cache = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* plan_cache_misses = nullptr;
    /// HDR end-to-end latency + per-stage decomposition (tail-exact
    /// percentiles, recorded whether or not tracing is on).
    obs::LatencyHistogram* latency_e2e = nullptr;
    obs::LatencyHistogram* stage[obs::kNumQueryStages] = {};
    obs::Counter* store_hits = nullptr;       // bound into the store
    obs::Counter* store_misses = nullptr;     // (probe outcome counters)
    obs::Counter* store_evictions = nullptr;
    obs::Counter* counterfactual = nullptr;
    obs::Gauge* savings = nullptr;  // running net savings; can go negative
    obs::Gauge* savings_by_cause[obs::kNumSavingsCauses] = {};
  };

  const catalog::Catalog* catalog_;
  PayLessConfig config_;
  std::unique_ptr<obs::Observability> owned_obs_;  // when none was shared
  obs::Observability* obs_;
  MetricHandles metric_;
  obs::AccuracyTracker accuracy_;  // after obs_: constructed from it
  /// Per-endpoint connectors + routing; never null.
  std::unique_ptr<federation::EndpointRouter> router_;
  semstore::SemanticStore store_;
  stats::StatsRegistry stats_;
  core::PlanCache plan_cache_;
  /// Persistence + recovery; null when durability is off. After store_,
  /// stats_ (it holds raw pointers to both) and plan_cache_ (its replay
  /// runs AbsorbHarvest, which invalidates plans).
  std::unique_ptr<durability::DurabilityManager> durability_;
  /// What-if pricer for savings accounting; null when disabled. After
  /// stats_ (it reads the live statistics through a raw pointer).
  std::unique_ptr<obs::SavingsAccountant> savings_accountant_;
  /// Capacity-budget slab placement; null without a budget.
  std::unique_ptr<federation::PlacementPolicy> placement_;
  /// Held shared by each query from plan-cache probe through execution and
  /// exclusively by TickPlacement: eviction shrinks the coverage that
  /// cached plans and the executor's remainder rely on. Untouched without
  /// a budget.
  std::shared_mutex placement_mutex_;
  storage::Database local_db_;
  std::atomic<int64_t> current_week_{0};
};

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_PAYLESS_H_
