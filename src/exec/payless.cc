#include "exec/payless.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "obs/explain.h"
#include "sql/parser.h"

namespace payless::exec {

namespace {

/// EXPLAIN's result relation: one string column, one row per text line —
/// the shape every SQL tool expects from an explain statement.
storage::Table PlanTextTable(const std::string& text) {
  storage::Table table(storage::Schema(
      {storage::SchemaColumn{"", "QUERY PLAN", ValueType::kString}}));
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) table.Append({Value(line)});
  return table;
}

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Compact per-query flight-recorder entry: status, latency, stage
/// decomposition and a span summary. Spans are truncated to the first
/// kMaxFlightSpans (with the true total alongside) so the entry fits the
/// recorder's fixed slot size even for wide bind joins.
std::string FlightEntryJson(const std::string& tenant, uint64_t query_id,
                            const QueryReport& report) {
  constexpr size_t kMaxFlightSpans = 12;
  std::ostringstream os;
  os << "{\"kind\":\"query\",\"tenant\":\"" << tenant
     << "\",\"query_id\":" << query_id << ",\"status\":\""
     << Status::CodeName(report.error.code())
     << "\",\"latency_us\":" << report.latency_us
     << ",\"transactions\":" << report.transactions_spent << ",\"stages\":{";
  for (int i = 0; i < obs::kNumQueryStages; ++i) {
    if (i > 0) os << ",";
    os << "\"" << obs::QueryStageName(i) << "\":" << report.stage_micros[i];
  }
  os << "},\"spans\":[";
  const size_t shown = std::min(report.trace.size(), kMaxFlightSpans);
  for (size_t i = 0; i < shown; ++i) {
    const obs::SpanRecord& span = report.trace[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << span.name << "\",\"dur_us\":"
       << span.duration_micros << "}";
  }
  os << "],\"spans_total\":" << report.trace.size() << "}";
  return os.str();
}

}  // namespace

PayLess::PayLess(const catalog::Catalog* catalog,
                 const market::DataMarket* market, PayLessConfig config)
    : catalog_(catalog),
      config_(config),
      owned_obs_(config.observability == nullptr
                     ? std::make_unique<obs::Observability>()
                     : nullptr),
      obs_(config.observability != nullptr ? config.observability
                                           : owned_obs_.get()),
      accuracy_(&obs_->metrics),
      router_(config.federation != nullptr
                  ? std::make_unique<federation::EndpointRouter>(
                        config.federation)
                  : std::make_unique<federation::EndpointRouter>(market)),
      store_(*catalog),
      stats_(*catalog, config.stats_kind) {
  // Resolve metric handles once; the per-query path then records through
  // stable pointers (relaxed atomics, no registry lock).
  obs::MetricsRegistry& m = obs_->metrics;
  metric_.queries = m.GetCounter("payless_queries_total");
  metric_.query_failures = m.GetCounter("payless_query_failures_total");
  metric_.budget_rejections = m.GetCounter("payless_budget_rejections_total");
  metric_.budget_warnings = m.GetCounter("payless_budget_warnings_total");
  metric_.rows_from_market = m.GetCounter("payless_rows_from_market_total");
  metric_.rows_from_cache = m.GetCounter("payless_rows_from_cache_total");
  metric_.plan_cache_hits = m.GetCounter("payless_plan_cache_hits_total");
  metric_.plan_cache_misses = m.GetCounter("payless_plan_cache_misses_total");
  // HDR latency: exact-decodable log-scale buckets for the end-to-end tail
  // and its per-stage decomposition. Recorded at the span boundaries but
  // independent of tracing, so tracing-off deployments still see the tail.
  metric_.latency_e2e = m.GetLatencyHistogram("payless_latency_e2e_micros");
  for (int i = 0; i < obs::kNumQueryStages; ++i) {
    metric_.stage[i] = m.GetLatencyHistogram(
        std::string("payless_stage_") + obs::QueryStageName(i) + "_micros");
  }
  // Store probe/eviction counters are wired unconditionally — coverage
  // telemetry must not depend on whether the introspection endpoint is up.
  metric_.store_hits = m.GetCounter("payless_store_hits_total");
  metric_.store_misses = m.GetCounter("payless_store_misses_total");
  metric_.store_evictions = m.GetCounter("payless_store_evictions_total");
  store_.BindMetrics(metric_.store_hits, metric_.store_misses,
                     metric_.store_evictions);
  metric_.counterfactual =
      m.GetCounter("payless_counterfactual_transactions_total");
  metric_.savings = m.GetGauge("payless_savings_transactions");
  for (int i = 0; i < obs::kNumSavingsCauses; ++i) {
    metric_.savings_by_cause[i] = m.GetGauge(
        std::string("payless_savings_cause_") +
        obs::SavingsCauseName(static_cast<obs::SavingsCause>(i)));
  }
  if (config.enable_savings_accounting) {
    // The counterfactual is the cheapest SINGLE market among the router's
    // endpoints, each priced against its own menu; a federation's edge over
    // the best of them is the federation_routing savings cause.
    std::vector<obs::SavingsAccountant::Endpoint> endpoints;
    for (size_t i = 0; i < router_->num_endpoints(); ++i) {
      endpoints.emplace_back(router_->endpoint_id(i), &router_->terms(i));
    }
    savings_accountant_ = std::make_unique<obs::SavingsAccountant>(
        catalog_, &stats_, std::move(endpoints));
  }
  // Scheduler/queue instrumentation and the coalescing-opportunity meter.
  // Gauges and counters are shared across connectors (they are atomics, and
  // the questions they answer — "how deep is the queue", "how many
  // transactions would a dedup layer have saved" — are per-client, not
  // per-endpoint).
  market::SchedulerHooks sched_hooks;
  sched_hooks.queue_depth = m.GetGauge("payless_sched_queue_depth");
  sched_hooks.in_flight = m.GetGauge("payless_sched_in_flight");
  sched_hooks.admission_wait =
      m.GetLatencyHistogram("payless_sched_admission_wait_micros");
  sched_hooks.coalescable_calls =
      m.GetCounter("payless_coalescable_calls_total");
  sched_hooks.coalescable_transactions =
      m.GetCounter("payless_coalescable_transactions_total");
  if (config.enable_flight_recorder) {
    sched_hooks.recorder = &obs_->flight_recorder;
  }
  if (config.enable_flight_recorder &&
      !config.flight_recorder_dump_path.empty()) {
    // Arm the crash path: a durability-injected hard crash dumps the ring
    // to this path before the process dies.
    obs_->flight_recorder.ArmCrashDump(config.flight_recorder_dump_path);
  }
  for (const std::string& name : catalog_->TableNames()) {
    const catalog::TableDef* def = catalog_->FindTable(name);
    // Resolve the accuracy tracker's per-table metric handles now, so no
    // steady-state Record ever takes the registry's name-map mutex.
    accuracy_.PrepareTable(name);
    if (def->is_local) {
      const Status st = local_db_.CreateTable(*def);
      assert(st.ok());
      (void)st;
    }
  }
  // Persistence + recovery come up BEFORE the listener serves live calls:
  // the snapshot restores the store and the statistics, and the log tail
  // replays through AbsorbHarvest (the same body live calls run, so replay
  // ticks the drift epoch as it goes). The plan cache starts empty: each
  // template is planned once against the recovered state. A failed
  // recovery freezes the disk and says so on /store; the client then
  // serves from memory.
  if (!config_.durability.dir.empty()) {
    durability_ = std::make_unique<durability::DurabilityManager>(
        config_.durability, catalog_, &store_, &stats_, &obs_->metrics,
        [this] { return current_week(); });
    const Status recovered = durability_->Recover(
        [this](const catalog::TableDef& def, const Box& region,
               const std::vector<Row>& rows, int64_t num_records,
               int64_t epoch) {
          AbsorbHarvest(def, region, rows, num_records, epoch);
        });
    (void)recovered;  // the manager froze the disk and keeps the error
    const durability::RecoveryInfo& info = durability_->recovery();
    if (info.recovered) {
      current_week_.store(info.restored_week, std::memory_order_relaxed);
    }
  }
  // Steps 5.3 / 5.4 of Fig. 3: every successful call feeds the semantic
  // store and the statistics (AbsorbHarvest). With durability on, the
  // harvest is logged durable FIRST, then applied — the manager serializes
  // the whole pipeline so the log is a faithful replay script.
  const market::MarketConnector::Listener harvest_listener =
      [this](const market::RestCall& call, const market::CallResult& result) {
        const catalog::TableDef* def = catalog_->FindTable(call.table);
        assert(def != nullptr);
        const Box region = market::CallRegion(*def, call);
        if (durability_ != nullptr) {
          durability_->LogAndApply(
              *def, region, result, current_week(),
              [this](const catalog::TableDef& d, const Box& r,
                     const std::vector<Row>& rows, int64_t num_records,
                     int64_t epoch) {
                AbsorbHarvest(d, r, rows, num_records, epoch);
              });
        } else {
          AbsorbHarvest(*def, region, result.rows, result.num_records,
                        current_week());
        }
      };
  // One loop wires every endpoint's connector, each billing its own meter
  // under its own market label: the retry policy, the scheduler hooks, the
  // learning loop (a slab is a slab no matter which market sold it) and an
  // RTT histogram per endpoint, which /markets renders next to its breaker
  // states. A single market's endpoint "" keeps the unsuffixed RTT name.
  // Every connector records its retry sleeps into the one backoff
  // histogram.
  market::MarketConnector::LatencyHooks latency_hooks;
  latency_hooks.backoff = m.GetLatencyHistogram("payless_retry_backoff_micros");
  for (size_t i = 0; i < router_->num_endpoints(); ++i) {
    market::MarketConnector* connector = router_->connector(i);
    connector->SetRetryPolicy(config.retry);
    connector->SetSchedulerHooks(sched_hooks);
    connector->AddListener(harvest_listener);
    const std::string& id = router_->endpoint_id(i);
    latency_hooks.rtt = m.GetLatencyHistogram(
        id.empty() ? "payless_market_rtt_micros"
                   : "payless_market_rtt_micros_" + id);
    router_->BindLatency(i, latency_hooks);
  }
  if (config_.placement_capacity_bytes > 0) {
    placement_ = std::make_unique<federation::PlacementPolicy>(
        config_.placement_capacity_bytes, &store_, catalog_, router_.get());
  }
}

void PayLess::AbsorbHarvest(const catalog::TableDef& def, const Box& region,
                            const std::vector<Row>& rows, int64_t num_records,
                            int64_t epoch) {
  // The drift test (Fig. 3 step 5.4) compares the estimate taken BEFORE
  // Feedback (afterwards the histogram has already absorbed the
  // observation and the comparison would flatter it) with what arrived.
  // Replay recomputes the identical estimate, so the drift epoch
  // reconverges deterministically on serial histories.
  const double estimated = stats_.EstimateRows(def.name, region);
  const double actual = static_cast<double>(num_records);
  store_.Store(def, region, rows, epoch);
  const Box changed = stats_.Feedback(def.name, region, num_records);
  if (config_.enable_accuracy_tracking) {
    accuracy_.Record(def.name, estimated, actual);
  }
  // The tick comes after Feedback has applied, so a plan optimized after
  // the invalidation below is priced on the learned statistics, and one
  // optimized before it is either dropped by it or refused by Insert. A
  // non-positive threshold never ticks: cached plans then live until their
  // key's other components change.
  const double threshold = config_.qerror_invalidation_threshold;
  if (threshold > 0.0 &&
      obs::AccuracyTracker::QError(estimated, actual) > threshold) {
    accuracy_.CountDriftTick();
    plan_cache_.Invalidate(&def, changed);
  }
}

int64_t PayLess::MinEpoch() const {
  switch (config_.consistency) {
    case ConsistencyLevel::kWeak:
      return std::numeric_limits<int64_t>::min();
    case ConsistencyLevel::kXWeek:
      return current_week() - config_.consistency_weeks;
    case ConsistencyLevel::kFull:
      return std::numeric_limits<int64_t>::max();  // nothing is reusable
  }
  return std::numeric_limits<int64_t>::min();
}

Result<QueryReport> PayLess::QueryWithReport(const std::string& sql,
                                             const std::vector<Value>& params) {
  return AdmitAndRun(sql, params, /*tick_placement=*/true);
}

Result<QueryReport> PayLess::AdmitAndRun(const std::string& sql,
                                         const std::vector<Value>& params,
                                         bool tick_placement) {
  const uint64_t query_id =
      obs_->last_query_id.fetch_add(1, std::memory_order_relaxed) + 1;
  metric_.queries->Add(1);

  // Admission gate 1: a tenant already over its hard cap or window rate
  // fails fast — before parsing, before the optimizer burns CPU, before any
  // market call. The soft threshold is not noted here (gate 2 owns it).
  obs::Admission admission =
      obs_->governor.Admit(config_.tenant, 0, /*now_micros=*/-1,
                           /*note_soft_warning=*/false);
  Result<QueryReport> result =
      admission.status.ok()
          ? QueryWithReportImpl(sql, params, query_id)
          : Result<QueryReport>(admission.status);
  if (!admission.status.ok()) {
    metric_.budget_rejections->Add(1);
    if (config_.enable_flight_recorder) {
      std::ostringstream os;
      os << "{\"kind\":\"budget_rejection\",\"tenant\":\"" << config_.tenant
         << "\",\"query_id\":" << query_id << ",\"gate\":1}";
      obs_->flight_recorder.Record(os.str());
      if (!config_.flight_recorder_dump_path.empty()) {
        obs_->flight_recorder.DumpTo(config_.flight_recorder_dump_path);
      }
    }
  }

  if (!result.ok() || !result.value().error.ok()) {
    metric_.query_failures->Add(1);
  }
  if (tick_placement && placement_ != nullptr && admission.status.ok()) {
    TickPlacement();
  }
  return result;
}

void PayLess::TickPlacement() {
  std::unique_lock<std::shared_mutex> lock(placement_mutex_);
  if (placement_->Tick() == 0) return;
  plan_cache_.Clear();
  // SnapshotNow compacts from the live store, so a restart recovers the
  // placement decision. A failed snapshot leaves the log authoritative: the
  // restart then holds slabs over budget until its first pass, never
  // unpaid ones.
  if (durability_ != nullptr) (void)durability_->SnapshotNow();
}

Result<QueryReport> PayLess::QueryWithReportImpl(
    const std::string& sql, const std::vector<Value>& params,
    uint64_t query_id) {
  const auto impl_start = std::chrono::steady_clock::now();
  // Wall-stage decomposition of this query; lives on this frame and is
  // threaded through the executor (and from there the scheduler/connector)
  // via CallObs. Works with tracing off — the recording points are the
  // same code boundaries the spans mark, not the spans themselves.
  obs::QueryStageAccumulator stages;
  // The trace lives on this frame; on early (pre-execution) error returns
  // it is simply dropped — those queries have no report to carry it.
  obs::Trace trace_storage;
  obs::Trace* trace = config_.enable_tracing ? &trace_storage : nullptr;
  uint64_t root = 0;
  if (trace != nullptr) {
    root = trace->StartSpan("query");
    trace->AddAttr(root, "tenant", config_.tenant);
    trace->AddAttr(root, "query_id", static_cast<int64_t>(query_id));
  }

  Result<sql::SelectStmt> stmt = [&] {
    obs::ScopedSpan span(trace, "parse", root);
    return sql::Parse(sql);
  }();
  PAYLESS_RETURN_IF_ERROR(stmt.status());
  Result<sql::BoundQuery> bound = [&] {
    obs::ScopedSpan span(trace, "bind", root);
    return sql::Bind(*stmt, *catalog_, params);
  }();
  PAYLESS_RETURN_IF_ERROR(bound.status());

  // `EXPLAIN <query>`: optimize-only, exactly like the Explain() API —
  // nothing is billed, nothing is cached, and the result relation is the
  // rendered plan. (EXPLAIN ANALYZE falls through: it executes for real.)
  if (bound->explain == sql::ExplainMode::kPlain) {
    Result<QueryReport> report = ExplainBound(*bound);
    if (report.ok()) report->query_id = query_id;
    return report;
  }
  core::FederationPricing federation_pricing;
  const core::OptimizerOptions opt_options =
      QueryOptimizerOptions(&federation_pricing);

  // Plan-template cache: repeated identical parameterized queries reuse
  // the optimizer's plan until a drift tick on a region the plan was
  // priced over drops it (AbsorbHarvest); the next instance then misses
  // and re-optimizes against the refined statistics.
  QueryReport report;
  bool cache_hit = false;
  core::Counterfactual cf;
  int64_t probe_micros = 0;
  std::shared_lock<std::shared_mutex> placement_lock;
  if (placement_ != nullptr) {
    placement_lock = std::shared_lock<std::shared_mutex>(placement_mutex_);
  }
  {
    obs::ScopedSpan plan_span(trace, "plan", root);
    std::string cache_key;
    const uint64_t invalidations = plan_cache_.invalidations();
    std::shared_ptr<const core::CachedPlan> cached;
    if (config_.enable_plan_cache) {
      const auto probe_start = std::chrono::steady_clock::now();
      cache_key = core::PlanCache::MakeKey(core::NormalizeSqlTemplate(sql),
                                           params, opt_options.min_epoch);
      cached = plan_cache_.Lookup(cache_key);
      probe_micros = MicrosSince(probe_start);
      if (cached != nullptr) {
        // A hit ran no optimization, so its planning counters stay zero.
        // The counterfactual rides in the template: a hit reports exactly
        // the price the miss that created the template computed.
        report.plan = cached->plan;
        cf = cached->cf;
        cache_hit = true;
      }
    }
    if (!cache_hit) {
      const core::Optimizer optimizer(catalog_, &stats_, &store_, opt_options);
      Result<core::OptimizeResult> optimized = optimizer.Optimize(*bound);
      PAYLESS_RETURN_IF_ERROR(optimized.status());
      report.plan = std::move(optimized->plan);
      report.counters = optimized->counters;
      if (savings_accountant_ != nullptr) {
        cf = savings_accountant_->Price(*bound, opt_options);
      }
      if (config_.enable_plan_cache) {
        // Refused when an invalidation raced the optimization.
        plan_cache_.Insert(
            cache_key,
            core::CachedPlan{report.plan, cf, core::PricedRegionsOf(*bound)},
            invalidations);
      }
    }
    plan_span.AddAttr("cache_hit", static_cast<int64_t>(cache_hit ? 1 : 0));
    plan_span.AddAttr("est_transactions", report.plan.est_cost);
  }
  report.counters.plan_cache_hits = cache_hit ? 1 : 0;
  report.counters.plan_cache_misses =
      (config_.enable_plan_cache && !cache_hit) ? 1 : 0;
  metric_.plan_cache_hits->Add(
      static_cast<int64_t>(report.counters.plan_cache_hits));
  metric_.plan_cache_misses->Add(
      static_cast<int64_t>(report.counters.plan_cache_misses));

  // Admission gate 2, now with the plan's estimated price: a predicted-
  // over-budget plan fails fast before spending anything. Soft-threshold
  // crossings are noted here, once per admitted query.
  obs::Admission admission =
      obs_->governor.Admit(config_.tenant, report.plan.est_cost);
  if (!admission.status.ok()) {
    metric_.budget_rejections->Add(1);
    if (config_.enable_flight_recorder) {
      // A budget rejection is exactly the moment an operator wants the
      // recent history: record it and dump the ring when a path is set.
      std::ostringstream os;
      os << "{\"kind\":\"budget_rejection\",\"tenant\":\"" << config_.tenant
         << "\",\"query_id\":" << query_id
         << ",\"est_transactions\":" << report.plan.est_cost << "}";
      obs_->flight_recorder.Record(os.str());
      if (!config_.flight_recorder_dump_path.empty()) {
        obs_->flight_recorder.DumpTo(config_.flight_recorder_dump_path);
      }
    }
    return admission.status;
  }
  report.budget_warning = admission.soft_warning;
  if (admission.soft_warning) metric_.budget_warnings->Add(1);

  ExecConfig exec_config;
  exec_config.use_sqr = opt_options.use_sqr;
  exec_config.min_epoch = opt_options.min_epoch;
  exec_config.remainder = opt_options.remainder;
  exec_config.max_parallel_calls = config_.max_parallel_calls;
  if (config_.query_deadline_micros > 0) {
    exec_config.deadline =
        market::Clock::now() +
        std::chrono::microseconds(config_.query_deadline_micros);
  }
  exec_config.obs.tenant = config_.tenant;
  exec_config.obs.ledger = &obs_->ledger;
  exec_config.obs.trace = trace;
  exec_config.obs.stages = &stages;
  uint64_t exec_span = 0;
  if (trace != nullptr) exec_span = trace->StartSpan("execute", root);
  exec_config.obs.parent_span = exec_span;

  ExecutionEngine engine(catalog_, &local_db_, router_.get(), &store_, &stats_);
  // Everything since entry minus the probe is the plan side of the
  // wall-stage partition: parse + bind + optimize, and also gate-2
  // admission and executor set-up, so the stages tile the query with no
  // untimed gap before execution starts.
  stages.Add(obs::kStagePlanCacheProbe, probe_micros);
  stages.Add(obs::kStageParsePlan, MicrosSince(impl_start) - probe_micros);
  std::vector<obs::AccessActuals> actuals;
  Result<storage::Table> result = engine.Execute(
      *bound, report.plan, exec_config, &report.exec, &actuals);
  if (placement_lock.owns_lock()) placement_lock.unlock();

  // Everything a delivered OR failed-mid-flight report carries: spend
  // attribution, window feed, metrics, and the closed trace.
  const auto finish_report = [&] {
    report.query_id = query_id;
    report.latency_us = MicrosSince(impl_start);
    for (int i = 0; i < obs::kNumQueryStages; ++i) {
      report.stage_micros[i] = stages.micros(i);
    }
    metric_.latency_e2e->Record(report.latency_us);
    for (int i = 0; i < obs::kNumQueryStages; ++i) {
      if (report.stage_micros[i] > 0) {
        metric_.stage[i]->Record(report.stage_micros[i]);
      }
    }
    // The spend is read from this query's own purchase records, not a
    // meter delta, so it is exact while other client threads spend
    // concurrently, and it counts billed-but-lost responses, which
    // ExecStats (delivered calls only) does not. A dataset appears once any
    // of its calls was evaluated, even at 0 transactions. On a mid-flight
    // failure it is the spend-so-far.
    std::map<std::string, obs::CostCell> cells;
    for (size_t i = 0; i < actuals.size(); ++i) {
      const obs::CostCell& cost = actuals[i].spend.cost;
      if (cost.calls == 0) continue;
      cells[bound->relations[report.plan.accesses[i].rel].def->dataset] +=
          cost;
    }
    for (const auto& [dataset, cell] : cells) {
      report.transactions_by_dataset[dataset] = cell.transactions;
      report.transactions_spent += cell.transactions;
    }
    obs_->governor.RecordSpend(config_.tenant, report.transactions_spent);
    metric_.rows_from_market->Add(report.exec.rows_from_market);
    metric_.rows_from_cache->Add(report.exec.rows_from_cache);
    if (savings_accountant_ != nullptr && cf.ok()) {
      // Reconcile the counterfactual against the realized per-dataset
      // spend — runs for failed-mid-flight queries too, where the spend
      // so far (and its waste) is exactly what should be accounted.
      const obs::QuerySavings s = savings_accountant_->RecordQuery(
          cf, report.plan, *bound, cache_hit, cells, config_.tenant,
          &obs_->savings);
      report.counterfactual_transactions = s.counterfactual;
      report.savings_transactions = s.savings;
      metric_.counterfactual->Add(s.counterfactual);
      metric_.savings->Add(s.savings);
      for (int i = 0; i < obs::kNumSavingsCauses; ++i) {
        if (s.by_cause[i] != 0) {
          metric_.savings_by_cause[i]->Add(s.by_cause[i]);
        }
      }
    }
    if (trace != nullptr) {
      trace->AddAttr(exec_span, "transactions", report.transactions_spent);
      trace->AddAttr(exec_span, "calls", report.exec.calls);
      trace->AddAttr(exec_span, "calls_cancelled",
                     report.exec.calls_cancelled);
      trace->EndSpan(exec_span);
      trace->AddAttr(root, "status",
                     std::string(Status::CodeName(report.error.code())));
      trace->EndSpan(root);
      report.trace = trace_storage.TakeSpans();
      if (obs_->trace_sink != nullptr) {
        obs_->trace_sink->Emit(config_.tenant, query_id, report.trace);
      }
    }
    if (config_.enable_flight_recorder) {
      // Always-on last-N ring: one compact entry per completed query,
      // after the trace closed so the span summary is final. A failed
      // query additionally dumps the whole ring when a path is set.
      obs_->flight_recorder.Record(
          FlightEntryJson(config_.tenant, query_id, report));
      if (!report.error.ok() && !config_.flight_recorder_dump_path.empty()) {
        obs_->flight_recorder.DumpTo(config_.flight_recorder_dump_path);
      }
    }
  };

  // EXPLAIN ANALYZE: render the measured per-access actuals (rows, calls,
  // transactions, retries, waste) next to the plan's estimates and make the
  // rendering the query's result. Runs after finish_report so the spend
  // and savings are final; also on mid-flight errors — a partial ANALYZE
  // that shows where the money went before the failure is exactly what an
  // operator wants.
  const auto attach_analyze = [&] {
    if (bound->explain != sql::ExplainMode::kAnalyze) return;
    obs::ExplainContext context;
    context.counters = &report.counters;
    context.stats = &stats_;
    context.actuals = &actuals;
    context.transactions_spent = report.transactions_spent;
    context.counterfactual_transactions = report.counterfactual_transactions;
    context.savings_transactions = report.savings_transactions;
    context.latency_us = report.latency_us;
    context.stage_micros = report.stage_micros;
    report.plan_text = obs::RenderExplain(report.plan, *bound, context);
    report.result = PlanTextTable(report.plan_text);
  };

  if (!result.ok()) {
    const Status::Code code = result.status().code();
    if (IsRetryable(code) || code == Status::Code::kDeadlineExceeded) {
      // Market infrastructure failure after money may already have flowed:
      // hand back the report so the caller sees the error AND the spend.
      // Everything delivered before the failure is in the semantic store,
      // so re-issuing the query only pays for what is still missing.
      report.error = result.status();
      finish_report();
      attach_analyze();
      return report;
    }
    return result.status();
  }

  report.result = std::move(*result);
  finish_report();
  attach_analyze();
  return report;
}

Result<storage::Table> PayLess::Query(const std::string& sql,
                                      const std::vector<Value>& params) {
  Result<QueryReport> report = QueryWithReport(sql, params);
  PAYLESS_RETURN_IF_ERROR(report.status());
  PAYLESS_RETURN_IF_ERROR(report->error);
  return std::move(report->result);
}

Result<QueryReport> PayLess::Explain(const std::string& sql,
                                     const std::vector<Value>& params) {
  Result<sql::SelectStmt> stmt = sql::Parse(sql);
  PAYLESS_RETURN_IF_ERROR(stmt.status());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, *catalog_, params);
  PAYLESS_RETURN_IF_ERROR(bound.status());
  return ExplainBound(*bound);
}

core::OptimizerOptions PayLess::QueryOptimizerOptions(
    core::FederationPricing* federation_pricing) const {
  core::OptimizerOptions options = config_.optimizer;
  options.min_epoch = MinEpoch();
  if (config_.consistency == ConsistencyLevel::kFull) {
    options.use_sqr = false;  // §4.3: full consistency disables SQR
  }
  // Snapshot the buy-site menu (terms + breaker liveness) once, before
  // optimization, so every access of this query is priced against one
  // consistent view of the client's endpoints.
  *federation_pricing = router_->BuildPricing();
  options.federation = federation_pricing;
  return options;
}

Result<QueryReport> PayLess::ExplainBound(const sql::BoundQuery& bound) {
  core::FederationPricing federation_pricing;
  const core::Optimizer optimizer(catalog_, &stats_, &store_,
                                  QueryOptimizerOptions(&federation_pricing));
  Result<core::OptimizeResult> optimized = optimizer.Optimize(bound);
  PAYLESS_RETURN_IF_ERROR(optimized.status());
  QueryReport report;
  report.plan = std::move(optimized->plan);
  report.counters = optimized->counters;
  obs::ExplainContext context;
  context.counters = &report.counters;
  context.stats = &stats_;
  report.plan_text = obs::RenderExplain(report.plan, bound, context);
  report.result = PlanTextTable(report.plan_text);
  return report;
}

Result<std::string> PayLess::ExplainText(const std::string& sql,
                                         const std::vector<Value>& params) {
  Result<QueryReport> report = Explain(sql, params);
  PAYLESS_RETURN_IF_ERROR(report.status());
  return std::move(report->plan_text);
}

Result<BatchReport> PayLess::QueryBatch(const std::vector<BatchQuery>& batch) {
  BatchReport report;

  // ---- Phase 1: collect the market footprints of every query.
  struct Footprint {
    const catalog::TableDef* def;
    Box region;
  };
  std::vector<Footprint> footprints;
  std::vector<sql::BoundQuery> bound_queries;
  for (const BatchQuery& q : batch) {
    Result<sql::SelectStmt> stmt = sql::Parse(q.sql);
    PAYLESS_RETURN_IF_ERROR(stmt.status());
    Result<sql::BoundQuery> bound = sql::Bind(*stmt, *catalog_, q.params);
    PAYLESS_RETURN_IF_ERROR(bound.status());
    for (const sql::BoundRelation& rel : bound->relations) {
      if (!rel.is_market() || rel.always_empty) continue;
      const Box region = rel.QueryRegion();
      if (!region.empty()) footprints.push_back(Footprint{rel.def, region});
    }
    bound_queries.push_back(std::move(*bound));
  }

  // ---- Phase 2: per table, greedily merge regions while a merged hull's
  // estimated remainder is cheaper than the individual remainders, then
  // prefetch groups that merged at least two query footprints.
  const bool sqr = config_.optimizer.use_sqr &&
                   config_.consistency != ConsistencyLevel::kFull;
  if (sqr) {
    // Prefetch buys through the executor's one buy path. Its spend is
    // shared across the batch's queries, so it is the tenant's spend and no
    // query's: each group's calls are recorded in `group_spend`, which is
    // cleared before every group.
    ExecutionEngine engine(catalog_, &local_db_, router_.get(), &store_,
                           &stats_);
    obs::SpendRecord group_spend;
    ExecConfig prefetch_config;
    prefetch_config.max_parallel_calls = config_.max_parallel_calls;
    prefetch_config.obs.tenant = config_.tenant;
    prefetch_config.obs.ledger = &obs_->ledger;
    prefetch_config.obs.spend = &group_spend;
    std::map<const catalog::TableDef*, std::vector<Box>> by_table;
    for (Footprint& fp : footprints) {
      by_table[fp.def].push_back(std::move(fp.region));
    }
    for (auto& [def, regions] : by_table) {
      const catalog::DatasetDef* dataset = catalog_->DatasetOf(*def);
      // Prefetch buys at the cheapest live endpoint (shared spend should
      // flow to the best menu, same as the optimizer's buy-site choice).
      const std::string buy_site = router_->NextCheapestLive(def->dataset, {});
      semstore::RemainderOptions rem_options = config_.optimizer.remainder;
      rem_options.tuples_per_transaction = dataset->tuples_per_transaction;
      const auto remainder = [&](const Box& region) {
        return semstore::GenerateRemainder(
            region, store_.CoveredRegions(def->name, MinEpoch()),
            core::Optimizer::DimSpecsFor(*def),
            [&](const Box& box) {
              return stats_.EstimateRows(def->name, box);
            },
            rem_options);
      };
      const auto remainder_cost = [&](const Box& region) {
        const semstore::RemainderResult rem = remainder(region);
        return rem.fully_covered ? int64_t{0} : rem.estimated_transactions;
      };
      const auto hull_of = [](const Box& a, const Box& b) {
        Box hull = a;
        for (size_t d = 0; d < hull.num_dims(); ++d) {
          hull.dim(d) = Interval(std::min(a.dim(d).lo, b.dim(d).lo),
                                 std::max(a.dim(d).hi, b.dim(d).hi));
        }
        return hull;
      };

      // Track how many original footprints each group absorbs.
      std::vector<size_t> members(regions.size(), 1);
      bool merged = true;
      while (merged && regions.size() > 1) {
        merged = false;
        for (size_t i = 0; i < regions.size() && !merged; ++i) {
          for (size_t j = i + 1; j < regions.size() && !merged; ++j) {
            const Box hull = hull_of(regions[i], regions[j]);
            if (remainder_cost(hull) <
                remainder_cost(regions[i]) + remainder_cost(regions[j])) {
              regions[i] = hull;
              members[i] += members[j];
              regions.erase(regions.begin() + static_cast<ptrdiff_t>(j));
              members.erase(members.begin() + static_cast<ptrdiff_t>(j));
              merged = true;
            }
          }
        }
      }

      // Prefetch groups that actually combined several query footprints.
      for (size_t g = 0; g < regions.size(); ++g) {
        if (members[g] < 2) continue;
        const semstore::RemainderResult rem = remainder(regions[g]);
        if (rem.fully_covered) continue;
        // Prefetch spend is the tenant's spend: a group the governor
        // refuses is left to the batch's queries, which each meet their
        // own gates. Soft warnings stay per query (gate 2).
        const obs::Admission admission = obs_->governor.Admit(
            config_.tenant, rem.estimated_transactions, /*now_micros=*/-1,
            /*note_soft_warning=*/false);
        if (!admission.status.ok()) {
          metric_.budget_rejections->Add(1);
          continue;
        }
        std::vector<market::RestCall> calls;
        for (const Box& box : rem.remainder_boxes) {
          Result<market::RestCall> call = market::CallFromRegion(*def, box);
          if (!call.ok()) {
            const Status::Code code = call.status().code();
            // Only the two EXPECTED inexpressibility codes are swallowed
            // (bound attribute unconstrained, categorical multi-value
            // sub-range §4.2) — and counted, so batch reports distinguish
            // "nothing to merge" from "merged but not issuable". Anything
            // else is a real bug and propagates.
            if (code == Status::Code::kBindingViolation ||
                code == Status::Code::kNotSupported) {
              ++report.prefetch_skipped_calls;
              continue;
            }
            return call.status();
          }
          calls.push_back(std::move(*call));
        }
        // The group's calls go out as one scheduler batch: a failure
        // cancels the unissued siblings, and the undelivered calls fail
        // over to the next-cheapest live endpoint. Its spend record counts
        // every call the market evaluated, lost responses included.
        const size_t group_calls = calls.size();
        group_spend = obs::SpendRecord{};
        ExecStats bought;
        const Status status =
            engine.Buy(*def, buy_site, std::move(calls), prefetch_config,
                       &bought);
        const int64_t billed = group_spend.cost.transactions;
        obs_->governor.RecordSpend(config_.tenant, billed);
        report.prefetch_transactions += billed;
        if (bought.calls > 0) ++report.merged_groups;
        if (!status.ok()) {
          const Status::Code code = status.code();
          if (!IsRetryable(code) && code != Status::Code::kDeadlineExceeded) {
            return status;
          }
          // Prefetching is an optimization: against a flaky market, the
          // calls no endpoint delivered are left to the queries, which
          // fetch (and retry) their own footprints in phase 3.
          report.prefetch_failed_calls +=
              group_calls - static_cast<size_t>(bought.calls);
        }
      }
    }
  }

  // ---- Phase 3: execute the queries normally; prefetched data is served
  // from the semantic store. The placement pass runs once after the whole
  // batch, so a budget cannot evict a prefetched hull before the batch's
  // later queries read it.
  Status status;
  for (const BatchQuery& q : batch) {
    Result<QueryReport> one =
        AdmitAndRun(q.sql, q.params, /*tick_placement=*/false);
    status = one.ok() ? one->error : one.status();
    if (!status.ok()) break;
    report.reports.push_back(std::move(*one));
  }
  if (placement_ != nullptr) TickPlacement();
  PAYLESS_RETURN_IF_ERROR(status);
  report.transactions_spent = report.prefetch_transactions;
  for (const QueryReport& one : report.reports) {
    report.transactions_spent += one.transactions_spent;
  }
  return report;
}

void PayLess::RegisterIntrospection(obs::HttpExpositionServer* server) {
  server->SetExplainHandler(
      [this](const std::string& sql) { return ExplainText(sql); });
  server->SetSavingsLedger(&obs_->savings);
  server->SetStoreStatsProvider([this] {
    std::string json = store_.StatsJson();
    if (durability_ != nullptr && !json.empty() && json.back() == '}') {
      // Splice the durability block into the /store document so one fetch
      // shows both what is held and how durable it is.
      json.pop_back();
      json += ",\"durability\":" + durability_->StatsJson() + "}";
    }
    return json;
  });
  server->AddRoute("/markets", [this](const std::string&) {
    std::string json = router_->StatsJson();
    if (placement_ != nullptr && !json.empty() && json.back() == '}') {
      // Splice the placement block in: one fetch shows where calls went
      // AND which purchased slabs the budget keeps.
      json.pop_back();
      json += ",\"placement\":" + placement_->StatsJson() + "}";
    }
    return obs::HttpReply::Json(std::move(json));
  });
  // The flight recorder's ring: the last N completed query traces and
  // scheduler batch events, newest last — what just happened, even when
  // nobody was watching.
  server->AddRoute("/flightrecorder", [this](const std::string&) {
    return obs::HttpReply::Json(obs_->flight_recorder.ToJson());
  });
}

Status PayLess::LoadLocalTable(const std::string& name,
                               const std::vector<Row>& rows) {
  const catalog::TableDef* def = catalog_->FindTable(name);
  if (def == nullptr) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  if (!def->is_local) {
    return Status::InvalidArgument("table '" + name +
                                   "' is a market table, not local");
  }
  PAYLESS_RETURN_IF_ERROR(local_db_.CreateTable(*def));
  return local_db_.InsertRows(name, rows);
}

}  // namespace payless::exec
