// The PayLess system facade (Fig. 2 / Fig. 3): one instance per data buyer.
//
// Wires together the parser, the learning optimizer, the execution engine,
// the semantic store, the feedback statistics and the market connector, and
// exposes the SQL interface end users see. Construction registers the
// connector listener that implements steps 5.3 (store every call + result)
// and 5.4 (statistics feedback) automatically, so the learning loop is
// always closed.
#ifndef PAYLESS_EXEC_PAYLESS_H_
#define PAYLESS_EXEC_PAYLESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
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
#include "obs/timeseries.h"
#include "obs/workload_journal.h"
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
  /// Which updatable statistic backs the learning optimizer (§3): the
  /// multidimensional feedback histogram (ISOMER role, default), the
  /// per-dimension independent histograms, or frozen uniform estimates.
  stats::StatsKind stats_kind = stats::StatsKind::kFeedbackHistogram;
  /// Fan-out for one access's REST calls: a bind join's per-binding-value
  /// calls (and remainder calls) go out up to this many at a time, merged
  /// deterministically in binding-value order. 0 = hardware concurrency,
  /// 1 = strictly serial. Rows and billing are identical either way.
  size_t max_parallel_calls = 0;
  /// Dispatch multi-call accesses through the connector's event-loop
  /// CallScheduler (timers instead of parked threads); fan-out then caps
  /// the in-flight window, not a thread count. Billing and row order are
  /// identical either way.
  bool enable_call_scheduler = true;
  /// Reuse plans of repeated identical parameterized queries (skips the DP
  /// entirely). Invalidation is drift-based: the accuracy tracker's epoch
  /// is part of the key, so templates only re-optimize when an estimate
  /// was materially wrong (see qerror_invalidation_threshold).
  bool enable_plan_cache = true;
  /// Record (estimated, actual) pairs at the feedback point into per-table
  /// q-error histograms and stats-quality gauges. Also powers the plan
  /// cache's drift invalidation — with tracking off, the drift epoch never
  /// moves and cached templates live until the consistency horizon shifts.
  bool enable_accuracy_tracking = true;
  /// A recorded q-error above this threshold ticks the drift epoch and
  /// invalidates every cached plan template (they were priced with
  /// statistics that have since been materially corrected). <= 0 disables
  /// drift invalidation entirely.
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
  /// replay rebuild the semantic store, the feedback histograms, the plan
  /// templates, the drift epoch and the store week — and every subsequent
  /// harvest is logged at the billing point before it is applied, so a
  /// process death never re-buys a durable slab.
  durability::DurabilityOptions durability;
  /// Price every query's counterfactual (store-less, uncached) plan and
  /// attribute the realized savings into the savings ledger and metrics.
  /// The what-if pass reuses the optimizer on the live statistics against
  /// an empty store — no market calls, no billing, no store mutation — and
  /// its result is cached inside the plan template, so steady-state
  /// serving prices the counterfactual once per template, not per query.
  bool enable_savings_accounting = true;
  /// Multi-market federation (nullable; must outlive the client). When
  /// set, the client owns one connector per endpoint: the optimizer picks
  /// each access's buy-site against the per-endpoint menus, execution
  /// routes calls there and fails over to the next-cheapest live endpoint
  /// when a breaker opens mid-query, and the savings counterfactual
  /// becomes the cheapest SINGLE-market plan (the federation's edge over
  /// any one endpoint is attributed under the federation_routing cause).
  /// The `market` constructor argument is then only the fallback for
  /// non-query surfaces; all query spend flows through the endpoint
  /// connectors.
  federation::FederatedMarket* federation = nullptr;
  /// Retained-slab budget for the semantic store (approx payload bytes);
  /// 0 = unbounded, the placement policy observes but never evicts.
  int64_t placement_capacity_bytes = 0;
  /// Background placement cadence; 0 = manual (placement()->Tick()).
  int64_t placement_tick_interval_micros = 0;
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
  /// Per-endpoint market-RTT latency objective: every attempt's round trip
  /// is judged against `target_micros`, and /markets renders the rolling
  /// burn rate next to the endpoint's breaker states.
  obs::LatencySlo::Options latency_slo;
  /// Workload journal (nullable; must outlive the client). When set, every
  /// ADMITTED query — gate-1 pass, including gate-2 budget rejections and
  /// mid-flight failures — appends one record with its SQL, params, tenant,
  /// virtual arrival timestamp and outcome digest. One journal is shared by
  /// all tenant clients of a deployment, so the recorded stream interleaves
  /// tenants exactly as they arrived; the deployment advisor replays it.
  obs::WorkloadJournal* workload_journal = nullptr;
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
  int64_t transactions_spent = 0;  // this query's own billed transactions
  /// Per-dataset breakdown of `transactions_spent`, straight from the cost
  /// ledger — callers stop re-deriving spend from meter deltas.
  std::map<std::string, int64_t> transactions_by_dataset;
  /// Ledger/trace id of this query, unique within its PayLess instance.
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
  std::vector<storage::Table> results;  // one per query, in input order
  int64_t transactions_spent = 0;
  /// Number of cross-query region groups whose market data was prefetched
  /// with merged calls (0 = batching found nothing to share).
  size_t merged_groups = 0;
  int64_t prefetch_transactions = 0;
  /// Prefetch calls skipped because the merged region is not expressible as
  /// one REST call (kBindingViolation / kNotSupported — e.g. a bound
  /// attribute left unconstrained, or a categorical multi-value sub-range).
  /// Expected and harmless: the per-query execution fetches those regions.
  size_t prefetch_skipped_calls = 0;
  /// Prefetch calls that failed against a flaky market (retries exhausted /
  /// deadline / rate limit) and were abandoned. Also harmless for
  /// correctness: prefetching is an optimization, the queries fall back to
  /// their own fetch paths.
  size_t prefetch_failed_calls = 0;
};

/// Thread-safety contract: Query / QueryWithReport / Explain may be called
/// concurrently from any number of client threads against one PayLess —
/// the market connector, billing meter, semantic store, statistics and plan
/// cache all synchronize internally, and per-query spend is counted from
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
  /// mostly for free. Falls back to plain sequential behaviour when merging
  /// never pays. Requires SQR to be enabled.
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

  const market::BillingMeter& meter() const { return connector_.meter(); }
  const semstore::SemanticStore& store() const { return store_; }
  const stats::StatsRegistry& stats() const { return stats_; }
  /// Estimator-accuracy telemetry (q-errors, drift epoch). Always present;
  /// it only accumulates samples while enable_accuracy_tracking is on.
  const obs::AccuracyTracker& accuracy() const { return accuracy_; }
  const core::PlanCache& plan_cache() const { return plan_cache_; }
  /// Durability manager; nullptr when durability is off. Non-const so
  /// tests/operators can force a snapshot (SnapshotNow).
  durability::DurabilityManager* durability() { return durability_.get(); }
  const durability::DurabilityManager* durability() const {
    return durability_.get();
  }
  market::MarketConnector* connector() { return &connector_; }
  /// Multi-market router; nullptr when no federation was configured.
  federation::EndpointRouter* router() { return router_.get(); }
  const federation::EndpointRouter* router() const { return router_.get(); }
  /// Slab placement policy; nullptr when neither a capacity budget nor a
  /// tick interval was configured.
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
  /// ledger), /store (live semantic-store coverage), /markets (per-endpoint
  /// spend, breaker states, failovers and slab placement; answers
  /// {"federated":false} in single-market mode) and — when `sampler` is
  /// non-null — /timeseries. Call before server->Start(); the server must
  /// not outlive this client.
  void RegisterIntrospection(obs::HttpExpositionServer* server,
                             obs::TimeSeriesSampler* sampler = nullptr);

 private:
  int64_t MinEpoch() const;
  /// Steps 5.3/5.4 of Fig. 3 — the single point where a billed harvest
  /// becomes state (store + statistics feedback + accuracy tracking).
  /// Called by the connector listener for live calls and by the durability
  /// manager's recovery replay, so both paths rebuild identical state.
  void AbsorbHarvest(const catalog::TableDef& def, const Box& region,
                     const std::vector<Row>& rows, int64_t num_records,
                     int64_t epoch);
  /// The traced/governed body of QueryWithReport; `query_id` is already
  /// assigned and admission against the CURRENT spend already passed.
  Result<QueryReport> QueryWithReportImpl(const std::string& sql,
                                          const std::vector<Value>& params,
                                          uint64_t query_id);

  /// Handles into the metrics registry, resolved once at construction so
  /// the per-query path is pure atomic arithmetic.
  struct MetricHandles {
    obs::Counter* queries = nullptr;
    obs::Counter* query_failures = nullptr;
    obs::Counter* budget_rejections = nullptr;
    obs::Counter* budget_warnings = nullptr;
    obs::Counter* transactions = nullptr;
    obs::Counter* market_calls = nullptr;
    obs::Counter* rows_from_market = nullptr;
    obs::Counter* rows_from_cache = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* plan_cache_misses = nullptr;
    obs::Histogram* query_latency_micros = nullptr;
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
  market::MarketConnector connector_;
  semstore::SemanticStore store_;
  stats::StatsRegistry stats_;
  core::PlanCache plan_cache_;
  /// Persistence + recovery; null when durability is off. After store_,
  /// stats_ and plan_cache_ (it holds raw pointers to all three).
  std::unique_ptr<durability::DurabilityManager> durability_;
  /// What-if pricer for savings accounting; null when disabled. After
  /// stats_ (it reads the live statistics through a raw pointer).
  std::unique_ptr<obs::SavingsAccountant> savings_accountant_;
  /// Per-endpoint connectors + routing; null in single-market mode.
  std::unique_ptr<federation::EndpointRouter> router_;
  /// Market-RTT latency objectives: one per endpoint (index-aligned with
  /// the router), or a single entry in single-market mode. Owned here —
  /// the registry owns histograms, SLO policy objects live with the client.
  std::vector<std::unique_ptr<obs::LatencySlo>> latency_slos_;
  /// Capacity-budget slab placement; null when not configured. Declared
  /// after store_/durability_/router_ so its background thread is joined
  /// before anything it reads is torn down.
  std::unique_ptr<federation::PlacementPolicy> placement_;
  storage::Database local_db_;
  std::atomic<int64_t> current_week_{0};
  std::atomic<uint64_t> next_query_id_{0};
};

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_PAYLESS_H_
