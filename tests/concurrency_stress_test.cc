// Concurrent query serving: N client threads against one PayLess must
// produce exactly the rows, billing totals and store contents of serial
// execution. The fixture's per-thread query footprints are pairwise
// disjoint (distinct station ranges), so every billed transaction is
// attributable to exactly one thread and the serial baseline is the
// ground truth for totals, not just a bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

constexpr int kNumStations = 64;
constexpr int kNumDates = 10;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small pages (5 tuples/transaction) keep billing non-trivial.
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 5}).ok());

    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"US"})),
        // Bound binding pattern (Fig. 4): point probes only. Forces the
        // bind-join path and keeps per-thread footprints disjoint at the
        // call level — a free StationID would admit whole-domain plain
        // calls whose SQR remainder sees every thread's coverage, making
        // billed totals depend on the interleaving.
        ColumnDef::Bound("StationID", ValueType::kInt64,
                         AttrDomain::Numeric(1, kNumStations)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(1, kNumDates)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = kNumStations * kNumDates;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    TableDef citymap;
    citymap.name = "CityMap";
    citymap.is_local = true;
    citymap.columns = {
        ColumnDef::Free("CityId", ValueType::kInt64,
                        AttrDomain::Numeric(1, kNumStations)),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, kNumStations))};
    citymap.cardinality = kNumStations;
    ASSERT_TRUE(cat_.RegisterTable(citymap).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t s = 1; s <= kNumStations; ++s) {
      for (int64_t d = 1; d <= kNumDates; ++d) {
        rows.push_back(Row{Value("US"), Value(s), Value(d),
                           Value(static_cast<double>(s * 100 + d))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Weather", std::move(rows)).ok());

    city_rows_.clear();
    for (int64_t i = 1; i <= kNumStations; ++i) {
      city_rows_.push_back(Row{Value(i), Value(i)});
    }
  }

  std::unique_ptr<PayLess> NewClient(PayLessConfig config = {}) {
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    EXPECT_TRUE(client->LoadLocalTable("CityMap", city_rows_).ok());
    return client;
  }

  // A bind join: the CityId range binds StationID values, each of which
  // becomes one point call against Weather.
  static constexpr const char* kBindSql =
      "SELECT Temperature FROM CityMap, Weather "
      "WHERE CityId >= ? AND CityId <= ? AND "
      "CityMap.StationID = Weather.StationID AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= ?";

  static std::vector<Row> SortedRows(const storage::Table& table) {
    std::vector<Row> rows = table.rows();
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> city_rows_;
};

// Parallel per-binding-value dispatch must be bit-identical to serial:
// same rows in the same order, same per-query spend, same meter totals,
// same store contents.
TEST_F(ConcurrencyStressTest, ParallelBindJoinMatchesSerialExactly) {
  PayLessConfig serial_config;
  serial_config.max_parallel_calls = 1;
  PayLessConfig parallel_config;
  parallel_config.max_parallel_calls = 8;

  auto serial = NewClient(serial_config);
  auto parallel = NewClient(parallel_config);

  const std::vector<std::vector<Value>> param_sets = {
      {Value(int64_t{1}), Value(int64_t{12}), Value(int64_t{kNumDates})},
      {Value(int64_t{5}), Value(int64_t{20}), Value(int64_t{7})},
      {Value(int64_t{1}), Value(int64_t{12}), Value(int64_t{kNumDates})},
      {Value(int64_t{40}), Value(int64_t{64}), Value(int64_t{3})},
  };
  for (const auto& params : param_sets) {
    Result<QueryReport> a = serial->QueryWithReport(kBindSql, params);
    Result<QueryReport> b = parallel->QueryWithReport(kBindSql, params);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Bit-identical: row order included, not just the multiset.
    EXPECT_EQ(a->result.rows(), b->result.rows());
    EXPECT_EQ(a->transactions_spent, b->transactions_spent);
    EXPECT_EQ(a->exec.calls, b->exec.calls);
    EXPECT_EQ(a->exec.rows_from_market, b->exec.rows_from_market);
    EXPECT_EQ(a->exec.rows_from_cache, b->exec.rows_from_cache);
  }
  EXPECT_EQ(serial->meter().total_transactions(),
            parallel->meter().total_transactions());
  EXPECT_EQ(serial->store().TotalStoredRows(),
            parallel->store().TotalStoredRows());
}

// N threads x M queries with pairwise-disjoint footprints against ONE
// shared PayLess: final billing totals, store row counts and every
// per-query result must match the serial baseline exactly.
TEST_F(ConcurrencyStressTest, DisjointThreadsMatchSerialBaseline) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 6;
  const int64_t span = kNumStations / kThreads;  // stations per thread

  // Each thread's query sequence walks sub-ranges of its own station span;
  // repeats exercise the semantic-store free-reuse path concurrently.
  const auto params_for = [&](int t, int q) -> std::vector<Value> {
    const int64_t lo = t * span + 1;
    const int64_t hi = lo + span - 1;
    switch (q % 3) {
      case 0:
        return {Value(lo), Value(hi), Value(int64_t{kNumDates})};
      case 1:
        return {Value(lo), Value((lo + hi) / 2), Value(int64_t{5})};
      default:
        return {Value(lo), Value(hi), Value(int64_t{kNumDates})};  // repeat
    }
  };

  // Both clients run on frozen uniform statistics. With learning on, the
  // remainder cover a thread's first query keeps depends on feedback from
  // the other threads, so it may merge the thread's point calls into one
  // range call: the same rows and money, but fewer stored views. Pinning
  // the estimates makes the view count exact.
  PayLessConfig pinned;
  pinned.stats_kind = stats::StatsKind::kUniform;

  // Serial baseline, thread-major order.
  auto baseline = NewClient(pinned);
  std::vector<std::vector<Row>> expected(kThreads * kQueriesPerThread);
  std::vector<int64_t> expected_spend(kThreads * kQueriesPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kQueriesPerThread; ++q) {
      Result<QueryReport> r =
          baseline->QueryWithReport(kBindSql, params_for(t, q));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected[t * kQueriesPerThread + q] = SortedRows(r->result);
      expected_spend[t * kQueriesPerThread + q] = r->transactions_spent;
    }
  }

  auto shared = NewClient(pinned);
  std::vector<std::vector<Row>> got(kThreads * kQueriesPerThread);
  std::vector<int64_t> got_spend(kThreads * kQueriesPerThread);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        Result<QueryReport> r =
            shared->QueryWithReport(kBindSql, params_for(t, q));
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        got[t * kQueriesPerThread + q] = SortedRows(r->result);
        got_spend[t * kQueriesPerThread + q] = r->transactions_spent;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  ASSERT_EQ(failures.load(), 0);
  for (int i = 0; i < kThreads * kQueriesPerThread; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
    EXPECT_EQ(got_spend[i], expected_spend[i]) << "query " << i;
  }
  EXPECT_EQ(shared->meter().total_transactions(),
            baseline->meter().total_transactions());
  EXPECT_EQ(shared->store().TotalStoredRows(),
            baseline->store().TotalStoredRows());
  EXPECT_EQ(shared->store().TotalViews(), baseline->store().TotalViews());

  // Store probe accounting stays exact under contention: every probe is
  // either a hit or a miss, and the bound registry counters agree with the
  // store's own atomics.
  const semstore::SemanticStore& store = shared->store();
  EXPECT_GT(store.TotalProbes(), 0);
  EXPECT_EQ(store.TotalHits() + store.TotalMisses(), store.TotalProbes());
  obs::MetricsRegistry& m = shared->observability()->metrics;
  EXPECT_EQ(m.GetCounter("payless_store_hits_total")->value(),
            store.TotalHits());
  EXPECT_EQ(m.GetCounter("payless_store_misses_total")->value(),
            store.TotalMisses());
}

// Threads with OVERLAPPING footprints: interleavings may legitimately
// shift who pays for shared regions, so billing is bounded, not exact —
// but every thread must still see exactly the correct rows.
TEST_F(ConcurrencyStressTest, OverlappingThreadsStayCorrect) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;

  // Reference results from a throwaway serial client.
  auto reference = NewClient();
  std::vector<std::vector<Row>> expected(kThreads);
  const auto params_for = [](int t) -> std::vector<Value> {
    // Ranges straddle each other: [1+2t, 17+2t] x dates [1, 10].
    return {Value(int64_t{1 + 2 * t}), Value(int64_t{17 + 2 * t}),
            Value(int64_t{kNumDates})};
  };
  for (int t = 0; t < kThreads; ++t) {
    Result<storage::Table> r = reference->Query(kBindSql, params_for(t));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected[t] = SortedRows(*r);
  }
  // Lower bound: a serial client pays every distinct station slab exactly
  // once (repeats are covered), and the shared client cannot pay less.
  const int64_t serial_once = reference->meter().total_transactions();
  // Upper bound: every query re-fetching its full footprint every round,
  // i.e. zero reuse ever.
  int64_t no_reuse_total = 0;
  for (int t = 0; t < kThreads; ++t) {
    auto standalone = NewClient();
    Result<QueryReport> r =
        standalone->QueryWithReport(kBindSql, params_for(t));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    no_reuse_total += r->transactions_spent;
  }

  auto shared = NewClient();
  std::atomic<int> mismatches{0};
  std::mutex diag_mutex;
  std::string diag;  // what the first failing thread actually saw
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        Result<storage::Table> r = shared->Query(kBindSql, params_for(t));
        if (!r.ok() || SortedRows(*r) != expected[t]) {
          std::lock_guard<std::mutex> lock(diag_mutex);
          if (diag.empty()) {
            diag = "thread " + std::to_string(t) + " round " +
                   std::to_string(round) +
                   (r.ok() ? ": got " + std::to_string(SortedRows(*r).size()) +
                                 " rows, want " +
                                 std::to_string(expected[t].size())
                           : ": " + r.status().ToString());
          }
          mismatches.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(mismatches.load(), 0) << diag;
  // Interleavings may double-fetch a slab that is in flight on another
  // thread (legitimate), so billing is bounded rather than exact: at least
  // one fetch per distinct slab, at most zero-reuse across all rounds.
  EXPECT_GE(shared->meter().total_transactions(), serial_once);
  EXPECT_LE(shared->meter().total_transactions(), kRounds * no_reuse_total);
}

// Disjoint threads under a seeded fault storm (transient drops, lost
// responses, rate limits, latency spikes): every query must still succeed
// after retries, rows and store contents must equal the fault-free serial
// baseline, and billing must equal the baseline PLUS exactly the
// post-evaluation losses the injector charged (surfaced as waste).
TEST_F(ConcurrencyStressTest, SeededChaosMatchesFaultFreeBaseline) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  const int64_t span = kNumStations / kThreads;

  const auto params_for = [&](int t, int q) -> std::vector<Value> {
    const int64_t lo = t * span + 1;
    const int64_t hi = lo + span - 1;
    switch (q % 3) {
      case 0:
        return {Value(lo), Value(hi), Value(int64_t{kNumDates})};
      case 1:
        return {Value(lo), Value((lo + hi) / 2), Value(int64_t{5})};
      default:
        return {Value(lo), Value(hi), Value(int64_t{kNumDates})};  // repeat
    }
  };

  auto baseline = NewClient();
  std::vector<std::vector<Row>> expected(kThreads * kQueriesPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kQueriesPerThread; ++q) {
      Result<QueryReport> r =
          baseline->QueryWithReport(kBindSql, params_for(t, q));
      ASSERT_TRUE(r.ok() && r->error.ok()) << r.status().ToString();
      expected[t * kQueriesPerThread + q] = SortedRows(r->result);
    }
  }

  PayLessConfig config;
  config.retry.max_attempts = 12;
  config.retry.initial_backoff_micros = 10;
  config.retry.max_backoff_micros = 100;
  auto chaos = NewClient(config);
  market::FaultProfile profile;
  profile.transient_rate = 0.05;
  profile.rate_limit_rate = 0.03;
  profile.lost_response_rate = 0.04;
  profile.latency_spike_rate = 0.02;
  profile.latency_spike_micros = 300;
  profile.retry_after_micros = 50;
  profile.seed = 20'260'806;
  market::FaultInjector injector(profile);
  chaos->connector()->SetFaultInjector(&injector);

  std::atomic<int> failures{0};
  std::vector<std::vector<Row>> got(kThreads * kQueriesPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        Result<QueryReport> r =
            chaos->QueryWithReport(kBindSql, params_for(t, q));
        if (!r.ok() || !r->error.ok()) {
          failures.fetch_add(1);
          return;
        }
        got[t * kQueriesPerThread + q] = SortedRows(r->result);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  chaos->connector()->SetFaultInjector(nullptr);

  ASSERT_EQ(failures.load(), 0);
  for (int i = 0; i < kThreads * kQueriesPerThread; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
  const market::RetryStats stats = chaos->connector()->retry_stats();
  EXPECT_GT(stats.retries, 0) << "fault storm never fired — raise the rates";
  // Non-wasted spend is exactly the fault-free total: retries and rate
  // limits cost nothing, and every extra billed transaction is accounted
  // for as a post-evaluation loss.
  EXPECT_EQ(chaos->meter().total_transactions() - stats.wasted_transactions,
            baseline->meter().total_transactions());
  EXPECT_EQ(chaos->store().TotalStoredRows(),
            baseline->store().TotalStoredRows());
  // No view-count check: which cover the remainder generator keeps depends
  // on statistics that concurrent feedback moves, so the chaos client may
  // buy the same rows in fewer, wider calls than the serial baseline.
}

}  // namespace
}  // namespace payless::exec
