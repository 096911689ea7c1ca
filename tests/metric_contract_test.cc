// The metric contract. Every name the metrics registry exports is listed in
// kContract with its kind, layer and unit, and pinned by an invariant that
// holds exactly: summed over the clients that share the registry, each
// number equals what the system reports about itself elsewhere — the query
// reports, the cost and savings ledgers, the budget governor, the stores,
// plan caches and accuracy trackers, the connectors' retry stats and the
// write-ahead log.
//
// One mixed workload drives every metric on the durability fixture's
// market:
//   - four tenants' clients share one Observability;
//   - transient faults make the first tenant's calls retry;
//   - a two-endpoint federation fails every call over;
//   - a durable client snapshots, restarts and replays its log tail;
//   - a 1-byte store budget evicts after every query;
//   - a QueryBatch prefetches a merged footprint;
//   - one query draws a soft budget warning and one a budget rejection.
// Afterwards the test enumerates the registry through the `# TYPE` lines of
// its Prometheus exposition. A name outside the contract fails the test, so
// a new metric lands together with its invariant; a contract entry nothing
// exports fails it too.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "durability_fixture.h"
#include "market/fault_injector.h"

namespace payless::exec {
namespace {

namespace fs = std::filesystem;

enum class Kind { kCounter, kGauge, kSummary };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kSummary:
      return "summary";
  }
  return "?";
}

/// One exported name. A name ending in '_' is a prefix: one series per
/// table, stage, endpoint or savings cause. A summary's invariant pins its
/// `_count` (and, where the reports carry the values, its `_sum`).
struct ContractEntry {
  const char* name;
  Kind kind;
  const char* layer;
  const char* unit;
};

// Invariants, summed over the clients sharing the registry:
//   queries_total            calls into QueryWithReport + queries a batch ran
//   query_failures_total     of those, an error Status or a report with error
//   budget_{rejections,warnings}_total   the governor's per-tenant counts
//   rows_from_{market,cache}_total       sum of report.exec.rows_from_*
//   plan_cache_{hits,misses}_total       plan_cache().Stats()
//   store_{hits,misses,evictions}_total  the stores' own counters
//   counterfactual, savings, savings_cause_*  the SavingsLedger totals
//   stats_drift_ticks_total  accuracy().drift_epoch(): nothing else moves it
//   qerror_x100_<table>      count: accuracy().Snapshot(table).samples
//   latency_e2e_micros       count and sum of report.latency_us (EXPLAIN
//                            without ANALYZE executes nothing; none here)
//   stage_<stage>_micros     reports with that stage > 0, and their sum
//   sched_admission_wait     count: calls the scheduler admitted
//   sched_{queue_depth,in_flight}        0 once every query has returned
//   market_rtt_micros[_<endpoint>]       count: attempts at that connector
//   retry_backoff_micros     count: retries (every retry sleeps first)
//   coalescable_*            0: every client here is serial
//   wal_appends_total, wal_append_micros count   harvests logged
//   snapshots_total          snapshots written
//   recovery_replayed_records            sum of RecoveryInfo::replayed_records
const ContractEntry kContract[] = {
    {"payless_queries_total", Kind::kCounter, "exec", "queries"},
    {"payless_query_failures_total", Kind::kCounter, "exec", "queries"},
    {"payless_budget_rejections_total", Kind::kCounter, "obs", "admissions"},
    {"payless_budget_warnings_total", Kind::kCounter, "obs", "admissions"},
    {"payless_rows_from_market_total", Kind::kCounter, "exec", "rows"},
    {"payless_rows_from_cache_total", Kind::kCounter, "exec", "rows"},
    {"payless_plan_cache_hits_total", Kind::kCounter, "core", "lookups"},
    {"payless_plan_cache_misses_total", Kind::kCounter, "core", "lookups"},
    {"payless_store_hits_total", Kind::kCounter, "semstore", "probes"},
    {"payless_store_misses_total", Kind::kCounter, "semstore", "probes"},
    {"payless_store_evictions_total", Kind::kCounter, "semstore", "views"},
    {"payless_counterfactual_transactions_total", Kind::kCounter, "obs",
     "transactions"},
    {"payless_savings_transactions", Kind::kGauge, "obs", "transactions"},
    {"payless_savings_cause_", Kind::kGauge, "obs", "transactions"},
    {"payless_stats_drift_ticks_total", Kind::kCounter, "stats", "ticks"},
    {"payless_qerror_x100_", Kind::kSummary, "stats", "q-error x100"},
    {"payless_latency_e2e_micros", Kind::kSummary, "exec", "micros"},
    {"payless_stage_", Kind::kSummary, "exec", "micros"},
    {"payless_sched_admission_wait_micros", Kind::kSummary, "market",
     "micros"},
    {"payless_sched_queue_depth", Kind::kGauge, "market", "calls"},
    {"payless_sched_in_flight", Kind::kGauge, "market", "calls"},
    {"payless_market_rtt_micros", Kind::kSummary, "market", "micros"},
    {"payless_market_rtt_micros_", Kind::kSummary, "federation", "micros"},
    {"payless_retry_backoff_micros", Kind::kSummary, "market", "micros"},
    {"payless_coalescable_calls_total", Kind::kCounter, "market", "calls"},
    {"payless_coalescable_transactions_total", Kind::kCounter, "market",
     "transactions"},
    {"payless_wal_appends_total", Kind::kCounter, "durability", "records"},
    {"payless_wal_append_micros", Kind::kSummary, "durability", "micros"},
    {"payless_snapshots_total", Kind::kCounter, "durability", "snapshots"},
    {"payless_recovery_replayed_records", Kind::kCounter, "durability",
     "records"},
};

/// The contract entry `name` falls under: its exact entry, else the
/// prefix entry it extends. nullptr when the contract does not know it.
const ContractEntry* FindEntry(const std::string& name) {
  for (const ContractEntry& entry : kContract) {
    if (name == entry.name) return &entry;
  }
  for (const ContractEntry& entry : kContract) {
    const std::string prefix = entry.name;
    if (prefix.back() == '_' && name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      return &entry;
    }
  }
  return nullptr;
}

class MetricContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: a repeated run may overlap another ctest's.
    dir_ = fs::path(::testing::TempDir()) /
           ("metric_contract_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  PayLessConfig Config(const std::string& tenant) {
    PayLessConfig config;
    config.tenant = tenant;
    config.observability = &obs_;
    // Every retry sleeps first: a positive backoff, jittered by at most 25%.
    config.retry.max_attempts = 8;
    config.retry.initial_backoff_micros = 20;
    config.retry.max_backoff_micros = 200;
    return config;
  }

  PayLessConfig DurableConfig(const std::string& tenant) {
    PayLessConfig config = Config(tenant);
    config.durability.dir = (dir_ / tenant).string();
    config.durability.snapshot_every_records = 0;  // snapshots on demand
    return config;
  }

  void Expect(const std::string& series, int64_t value) {
    expected_[series] += value;
  }

  /// Folds one report that reached the caller (delivered, or failed
  /// mid-flight with its spend-so-far).
  void FoldReport(const QueryReport& report) {
    Expect("payless_rows_from_market_total", report.exec.rows_from_market);
    Expect("payless_rows_from_cache_total", report.exec.rows_from_cache);
    Expect("payless_latency_e2e_micros_count", 1);
    Expect("payless_latency_e2e_micros_sum", report.latency_us);
    for (int s = 0; s < obs::kNumQueryStages; ++s) {
      const std::string name =
          std::string("payless_stage_") + obs::QueryStageName(s) + "_micros";
      const int64_t micros = report.stage_micros[s];
      Expect(name + "_count", micros > 0 ? 1 : 0);
      Expect(name + "_sum", micros > 0 ? micros : 0);
    }
  }

  void Run(PayLess* client, const std::string& sql,
           const std::vector<Value>& params = {}) {
    Expect("payless_queries_total", 1);
    const Result<QueryReport> report = client->QueryWithReport(sql, params);
    if (!report.ok() || !report->ok()) {
      Expect("payless_query_failures_total", 1);
    }
    if (report.ok()) FoldReport(*report);
  }

  void RunMix(PayLess* client) {
    for (const std::vector<Value>& params : DurabilityFixture::ParamMix()) {
      Run(client, DurabilityFixture::kBindSql, params);
    }
  }

  void FoldConnector(const market::MarketConnector& connector,
                     const std::string& rtt_name) {
    const market::RetryStats stats = connector.retry_stats();
    Expect(rtt_name + "_count", stats.attempts);
    Expect("payless_retry_backoff_micros_count", stats.retries);
    // An admitted call makes a first attempt or meets an open breaker.
    Expect("payless_sched_admission_wait_micros_count",
           stats.attempts - stats.retries + stats.breaker_rejections);
  }

  /// Folds everything one client counted itself; call before it goes.
  void Retire(PayLess* client) {
    Expect("payless_store_hits_total", client->store().TotalHits());
    Expect("payless_store_misses_total", client->store().TotalMisses());
    Expect("payless_store_evictions_total", client->store().TotalEvictions());
    const core::PlanCacheStats cache = client->plan_cache().Stats();
    Expect("payless_plan_cache_hits_total", static_cast<int64_t>(cache.hits));
    Expect("payless_plan_cache_misses_total",
           static_cast<int64_t>(cache.misses));
    for (const std::string& table : client->catalog().TableNames()) {
      Expect("payless_qerror_x100_" +
                 obs::AccuracyTracker::SanitizeMetricName(table) + "_count",
             static_cast<int64_t>(client->accuracy().Snapshot(table).samples));
    }
    Expect("payless_stats_drift_ticks_total",
           static_cast<int64_t>(client->accuracy().drift_epoch()));
    // Every endpoint's connector under its own RTT name; a single market
    // is the one endpoint "" and keeps the unsuffixed name.
    const federation::EndpointRouter& router = *client->router();
    for (size_t i = 0; i < router.num_endpoints(); ++i) {
      const std::string& id = router.endpoint_id(i);
      FoldConnector(router.connector(i),
                    id.empty() ? "payless_market_rtt_micros"
                               : "payless_market_rtt_micros_" + id);
    }
    const durability::DurabilityManager* durability = client->durability();
    if (durability != nullptr) {
      // Every delivered harvest is logged. The meter also bills lost
      // responses, which deliver nothing.
      const int64_t harvests = client->meter().total_calls() -
                               client->connector()->retry_stats().wasted_calls;
      Expect("payless_wal_appends_total", harvests);
      Expect("payless_wal_append_micros_count", harvests);
      Expect("payless_recovery_replayed_records",
             static_cast<int64_t>(durability->recovery().replayed_records));
    }
  }

  fs::path dir_;
  DurabilityFixture fixture_;
  obs::Observability obs_;
  std::map<std::string, int64_t> expected_;
};

TEST_F(MetricContractTest, EveryExportedNumberHoldsItsInvariant) {
  int64_t snapshots = 0;

  // Tenant a: durable, behind a flaky connector. It snapshots, buys a log
  // tail after the snapshot, and restarts. Every q-error is at least 1, so
  // each of its harvests ticks the drift epoch, the replayed ones included.
  PayLessConfig a_config = DurableConfig("a");
  a_config.qerror_invalidation_threshold = 0.5;
  {
    auto a = fixture_.NewClient(a_config);
    market::FaultProfile flaky;
    flaky.transient_rate = 0.3;
    flaky.seed = 11;
    market::FaultInjector injector(flaky);
    a->connector()->SetFaultInjector(&injector);
    RunMix(a.get());
    ASSERT_TRUE(a->durability()->SnapshotNow().ok());
    ++snapshots;
    // Stations 7-9 on dates 3-4 are not in the mix: a tail to replay.
    Run(a.get(), DurabilityFixture::kBindSql,
        {Value(int64_t{1}), Value(int64_t{16}), Value(int64_t{4})});
    a->connector()->SetFaultInjector(nullptr);
    EXPECT_GT(a->connector()->retry_stats().retries, 0);
    Retire(a.get());
  }
  auto a = fixture_.NewClient(a_config);
  ASSERT_TRUE(a->durability()->recovery().had_snapshot);
  EXPECT_GT(a->durability()->recovery().replayed_records, 0u);
  EXPECT_GT(a->accuracy().drift_epoch(), 0u);  // replay ticked the epoch
  RunMix(a.get());

  // Tenant b: durable, with a soft budget. A batch prefetches one merged
  // footprint; then a hard cap at its spend refuses the next batch's
  // prefetch and its first query, before either spends.
  obs::TenantBudget b_budget;
  b_budget.soft_warn_transactions = 1;
  obs_.governor.SetBudget("b", b_budget);
  auto b = fixture_.NewClient(DurableConfig("b"));
  const std::string point_sql =
      "SELECT Temperature FROM Weather WHERE StationID = 5 AND "
      "Country = 'US' AND Date >= ? AND Date <= ?";
  const Result<BatchReport> batch = b->QueryBatch(
      {BatchQuery{point_sql, {Value(int64_t{1}), Value(int64_t{2})}},
       BatchQuery{point_sql, {Value(int64_t{2}), Value(int64_t{4})}}});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->merged_groups, 1u);
  EXPECT_GT(batch->prefetch_transactions, 0);
  Expect("payless_queries_total", static_cast<int64_t>(batch->reports.size()));
  for (const QueryReport& report : batch->reports) FoldReport(report);
  RunMix(b.get());
  EXPECT_GT(obs_.governor.warnings("b"), 0);
  b_budget.hard_cap_transactions = obs_.ledger.TenantTransactions("b");
  obs_.governor.SetBudget("b", b_budget);
  const std::string station8_sql =
      "SELECT Temperature FROM Weather WHERE StationID = 8 AND "
      "Country = 'US' AND Date >= 3 AND Date <= ?";
  const Result<BatchReport> capped =
      b->QueryBatch({BatchQuery{station8_sql, {Value(int64_t{3})}},
                     BatchQuery{station8_sql, {Value(int64_t{4})}}});
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), Status::Code::kBudgetExceeded);
  Expect("payless_queries_total", 1);  // a batch stops at its first failure
  Expect("payless_query_failures_total", 1);
  EXPECT_EQ(obs_.governor.rejections("b"), 2);

  // Tenant c: a 1-byte store budget evicts after every query.
  PayLessConfig c_config = Config("c");
  c_config.placement_capacity_bytes = 1;
  auto c = fixture_.NewClient(c_config);
  RunMix(c.get());
  RunMix(c.get());
  Run(c.get(), "SELEC nope");  // a parse error is a failed query too
  EXPECT_GT(c->store().TotalEvictions(), 0);

  // Tenant f: two endpoints; the cheaper one drops every call, so each
  // call retries there and fails over to the other.
  federation::FederatedMarket federation(fixture_.market_.get());
  federation::EndpointConfig cheap;
  cheap.id = "cheap";
  cheap.menu["WHW"] = federation::DatasetTerms{0.5, 5};
  cheap.inject_faults = true;
  cheap.fault_profile.transient_rate = 1.0;
  ASSERT_TRUE(federation.AddEndpoint(cheap).ok());
  federation::EndpointConfig dear;
  dear.id = "dear";
  ASSERT_TRUE(federation.AddEndpoint(dear).ok());
  PayLessConfig f_config = Config("f");
  f_config.federation = &federation;
  f_config.retry.max_attempts = 2;
  auto f = fixture_.NewClient(f_config);
  RunMix(f.get());
  EXPECT_GT(f->router()->failovers(), 0);

  for (PayLess* client : {a.get(), b.get(), c.get(), f.get()}) {
    Retire(client);
  }
  for (const char* tenant : {"a", "b", "c", "f"}) {
    Expect("payless_budget_rejections_total",
           obs_.governor.rejections(tenant));
    Expect("payless_budget_warnings_total", obs_.governor.warnings(tenant));
  }
  ASSERT_TRUE(obs_.savings.Reconciles());
  Expect("payless_counterfactual_transactions_total",
         obs_.savings.total_counterfactual());
  Expect("payless_savings_transactions", obs_.savings.total_savings());
  for (int i = 0; i < obs::kNumSavingsCauses; ++i) {
    const auto cause = static_cast<obs::SavingsCause>(i);
    Expect(std::string("payless_savings_cause_") + obs::SavingsCauseName(cause),
           obs_.savings.total_by_cause(cause));
  }
  Expect("payless_sched_queue_depth", 0);
  Expect("payless_sched_in_flight", 0);
  Expect("payless_coalescable_calls_total", 0);
  Expect("payless_coalescable_transactions_total", 0);
  Expect("payless_snapshots_total", snapshots);

  // Enumerate the registry: `# TYPE <name> <kind>` names every series,
  // `<series> <value>` carries the unlabeled values.
  std::map<std::string, std::string> registered;
  std::map<std::string, int64_t> exported;
  std::istringstream lines(obs_.metrics.ToPrometheusText());
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string first, second;
    fields >> first >> second;
    if (first == "#") {
      std::string name, kind;
      fields >> name >> kind;
      if (second == "TYPE") registered[name] = kind;
    } else if (first.find('{') == std::string::npos) {
      exported[first] = std::stoll(second);
    }
  }

  std::set<const ContractEntry*> matched;
  for (const auto& [name, kind] : registered) {
    const ContractEntry* entry = FindEntry(name);
    ASSERT_NE(entry, nullptr) << name << " is exported but not in the contract";
    matched.insert(entry);
    EXPECT_EQ(kind, KindName(entry->kind)) << name;
    const std::string series =
        entry->kind == Kind::kSummary ? name + "_count" : name;
    EXPECT_EQ(expected_.count(series), 1u) << name << " has no invariant";
  }
  for (const ContractEntry& entry : kContract) {
    EXPECT_EQ(matched.count(&entry), 1u)
        << entry.name << " is in the contract but nothing exports it";
  }
  for (const auto& [series, value] : expected_) {
    ASSERT_EQ(exported.count(series), 1u) << series << " is not exported";
    EXPECT_EQ(exported.at(series), value) << series;
  }
}

}  // namespace
}  // namespace payless::exec
