// Latency observability: the HDR latency histogram (exact-decodable
// log-scale buckets), the per-stage wall decomposition, and the crash-safe
// flight recorder ring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"

namespace payless::obs {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram: bucket geometry and percentile decoding.

TEST(LatencyHistogramTest, SmallValuesDecodeExactly) {
  // The first 32 values are their own buckets: a recorded value below
  // 2^kSubBits comes back exactly from any quantile that selects it.
  for (int64_t v = 0; v < 32; ++v) {
    LatencyHistogram h;
    h.Record(v);
    EXPECT_EQ(h.ValueAtQuantile(0.5), v) << "value " << v;
    EXPECT_EQ(h.ValueAtQuantile(1.0), v) << "value " << v;
  }
}

TEST(LatencyHistogramTest, LargeValuesDecodeWithinRelativeError) {
  // Sub-logarithmic buckets: 32 sub-buckets per octave bound the relative
  // decode error by 2^-5 ~ 3.125%. BucketHigh is an upper bound, so the
  // decoded value is >= the recorded one and within one sub-bucket above.
  for (const int64_t v :
       {int64_t{33}, int64_t{100}, int64_t{999}, int64_t{12'345},
        int64_t{1'000'000}, int64_t{123'456'789}}) {
    LatencyHistogram h;
    h.Record(v);
    const int64_t decoded = h.ValueAtQuantile(0.99);
    EXPECT_GE(decoded, v);
    EXPECT_LE(static_cast<double>(decoded - v), 0.04 * static_cast<double>(v))
        << "value " << v << " decoded " << decoded;
  }
}

TEST(LatencyHistogramTest, BucketIndexRoundTrips) {
  // Every value lands in a bucket whose [low, high] range contains it.
  for (int64_t v = 0; v < 100'000; v = v < 64 ? v + 1 : v + v / 7) {
    const int index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(v, LatencyHistogram::BucketLow(index)) << "value " << v;
    EXPECT_LE(v, LatencyHistogram::BucketHigh(index)) << "value " << v;
  }
}

TEST(LatencyHistogramTest, PercentilesOfUniformRange) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.sum(), 1000 * 1001 / 2);
  // Each percentile must decode within the bucket error of its rank value.
  const auto expect_near = [&](double q, int64_t expected) {
    const int64_t got = h.ValueAtQuantile(q);
    EXPECT_GE(got, expected) << "q=" << q;
    EXPECT_LE(static_cast<double>(got),
              1.05 * static_cast<double>(expected) + 1.0)
        << "q=" << q;
  };
  expect_near(0.50, 500);
  expect_near(0.95, 950);
  expect_near(0.99, 990);
  expect_near(0.999, 999);
  // Quantiles are monotone in q.
  EXPECT_LE(h.ValueAtQuantile(0.50), h.ValueAtQuantile(0.95));
  EXPECT_LE(h.ValueAtQuantile(0.95), h.ValueAtQuantile(0.99));
  EXPECT_LE(h.ValueAtQuantile(0.99), h.ValueAtQuantile(0.999));
}

TEST(LatencyHistogramTest, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0);
}

TEST(LatencyHistogramTest, EmptyHistogramAnswersZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0);
}

TEST(LatencyHistogramTest, ConcurrentRecordingLosesNothing) {
  // Lock-free recording: N threads, disjoint value ranges, exact count and
  // sum afterwards. Run under TSan in CI.
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        h.Record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const int64_t n = kThreads * kPerThread;
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.sum(), n * (n - 1) / 2);
}

// ---------------------------------------------------------------------------
// Stage names and the wall partition contract.

TEST(LatencyHistogramTest, StageNamesAreStableAndComplete) {
  EXPECT_STREQ(QueryStageName(kStageParsePlan), "parse_plan");
  EXPECT_STREQ(QueryStageName(kStagePlanCacheProbe), "plan_cache_probe");
  EXPECT_STREQ(QueryStageName(kStageFetch), "fetch");
  EXPECT_STREQ(QueryStageName(kStageLocalEval), "local_eval");
  EXPECT_STREQ(QueryStageName(kStageMerge), "merge");
  EXPECT_STREQ(QueryStageName(kStageAdmissionWait), "sched_admission");
  EXPECT_STREQ(QueryStageName(kStageMarketRtt), "market_rtt");
  EXPECT_STREQ(QueryStageName(kStageBackoffWait), "retry_backoff");
  // The wall stages are a prefix: everything below kNumWallStages
  // partitions the end-to-end latency; the rest are overlapping detail.
  EXPECT_EQ(kNumWallStages, kStageMerge + 1);
  EXPECT_LT(kNumWallStages, kNumQueryStages);
}

TEST(LatencyHistogramTest, AccumulatorIgnoresOutOfRangeAndNonPositive) {
  QueryStageAccumulator acc;
  acc.Add(kStageFetch, 100);
  acc.Add(kStageFetch, 50);
  acc.Add(kStageFetch, 0);      // ignored
  acc.Add(kStageFetch, -7);     // ignored
  acc.Add(-1, 100);             // ignored
  acc.Add(kNumQueryStages, 5);  // ignored
  EXPECT_EQ(acc.micros(kStageFetch), 150);
  EXPECT_EQ(acc.micros(kStageMerge), 0);
}

// ---------------------------------------------------------------------------
// FlightRecorder ring.

TEST(FlightRecorderTest, KeepsLastNInOrder) {
  FlightRecorder::Options options;
  options.capacity = 4;
  FlightRecorder recorder(options);
  for (int i = 0; i < 6; ++i) {
    recorder.Record("{\"n\":" + std::to_string(i) + "}");
  }
  const std::string json = recorder.ToJson();
  // Lapped twice: 0 and 1 are gone, 2..5 present oldest to newest.
  EXPECT_EQ(json.find("{\"n\":0}"), std::string::npos);
  EXPECT_EQ(json.find("{\"n\":1}"), std::string::npos);
  size_t last = 0;
  for (int i = 2; i < 6; ++i) {
    const size_t pos = json.find("{\"n\":" + std::to_string(i) + "}");
    ASSERT_NE(pos, std::string::npos) << json;
    EXPECT_GT(pos, last);
    last = pos;
  }
  EXPECT_EQ(recorder.recorded(), 6);
  EXPECT_NE(json.find("\"recorded\":6"), std::string::npos);
}

TEST(FlightRecorderTest, OversizedEntryIsDropped) {
  FlightRecorder::Options options;
  options.capacity = 2;
  options.entry_bytes = 64;
  FlightRecorder recorder(options);
  recorder.Record(std::string(1000, 'x'));
  EXPECT_EQ(recorder.recorded(), 0);
  EXPECT_EQ(recorder.dropped(), 1);
  recorder.Record("{\"ok\":1}");
  EXPECT_EQ(recorder.recorded(), 1);
}

TEST(FlightRecorderTest, DumpToWritesWellFormedDocument) {
  FlightRecorder recorder;
  recorder.Record("{\"kind\":\"query\",\"query_id\":7}");
  const std::string path =
      (std::filesystem::temp_directory_path() / "payless_fr_dump_test.json")
          .string();
  ASSERT_TRUE(recorder.DumpTo(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  EXPECT_NE(dump.find("\"entries\":["), std::string::npos);
  EXPECT_NE(dump.find("\"query_id\":7"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(FlightRecorderTest, RepeatedDumpsGetMonotonicSuffixesNotOverwrites) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "payless_fr_dump_seq_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dump.json").string();

  FlightRecorder recorder;
  recorder.Record("{\"kind\":\"first\"}");
  ASSERT_TRUE(recorder.DumpTo(path));
  recorder.Record("{\"kind\":\"second\"}");
  ASSERT_TRUE(recorder.DumpTo(path));
  recorder.Record("{\"kind\":\"third\"}");
  ASSERT_TRUE(recorder.DumpTo(path));

  // First dump keeps the exact path (crash-path consumers glob for it);
  // later dumps land beside it instead of destroying the earlier evidence.
  EXPECT_TRUE(std::filesystem::exists(dir / "dump.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "dump-1.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "dump-2.json"));

  // Each file is the snapshot taken at its dump, not a rewrite: the first
  // dump cannot mention entries recorded after it.
  std::ifstream first(dir / "dump.json");
  std::stringstream first_content;
  first_content << first.rdbuf();
  EXPECT_EQ(first_content.str().find("\"kind\":\"second\""),
            std::string::npos);
  std::ifstream third(dir / "dump-2.json");
  std::stringstream third_content;
  third_content << third.rdbuf();
  EXPECT_NE(third_content.str().find("\"kind\":\"third\""),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, ArmedRecorderDumpsOnCrashPath) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "payless_fr_armed_test.json")
          .string();
  std::filesystem::remove(path);
  {
    FlightRecorder recorder;
    recorder.Record("{\"kind\":\"query\",\"query_id\":42}");
    recorder.ArmCrashDump(path);
    // What the durability crash points call right before _Exit.
    FlightRecorder::DumpArmedRecorder();
    ASSERT_TRUE(std::filesystem::exists(path));
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("\"query_id\":42"), std::string::npos);
    // Destruction disarms: a later crash must not touch a dead recorder.
  }
  std::filesystem::remove(path);
  FlightRecorder::DumpArmedRecorder();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FlightRecorderTest, ConcurrentRecordingStaysReadable) {
  // Writers race each other and a reader; every attempt is either recorded
  // or counted dropped, and concurrent ToJson never tears. Run under TSan.
  FlightRecorder::Options options;
  options.capacity = 8;
  FlightRecorder recorder(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = recorder.ToJson();
      EXPECT_NE(json.find("\"entries\""), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record("{\"t\":" + std::to_string(t) +
                        ",\"i\":" + std::to_string(i) + "}");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(recorder.recorded() + recorder.dropped(), kThreads * kPerThread);
  EXPECT_GT(recorder.recorded(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: a real query's stage decomposition, report fields, EXPLAIN
// ANALYZE footer and flight-recorder entry.

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;
using exec::QueryReport;

constexpr int64_t kNumStations = 16;
constexpr int64_t kNumDates = 5;

class StageDecompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 5}).ok());
    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
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
        rows.push_back(
            Row{Value(s), Value(d), Value(static_cast<double>(s * 100 + d))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Weather", std::move(rows)).ok());
    for (int64_t i = 1; i <= kNumStations; ++i) {
      city_rows_.push_back(Row{Value(i), Value(i)});
    }
  }

  static constexpr const char* kBindSql =
      "SELECT Temperature FROM CityMap, Weather "
      "WHERE CityId >= ? AND CityId <= ? AND "
      "CityMap.StationID = Weather.StationID AND Date >= 1 AND Date <= 5";

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> city_rows_;
};

TEST_F(StageDecompositionTest, WallStagesSumToEndToEndWithinSlack) {
  PayLessConfig config;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  // Simulated round trip makes fetch dominate, so the partition's residue
  // (loop bookkeeping, report assembly) is far below the slack.
  client.connector()->SetSimulatedLatencyMicros(2000);

  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{8})};
  const Result<QueryReport> report = client.QueryWithReport(kBindSql, params);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());

  EXPECT_GT(report->latency_us, 0);
  int64_t wall_sum = 0;
  for (int i = 0; i < kNumWallStages; ++i) {
    wall_sum += report->stage_micros[i];
  }
  EXPECT_GT(report->stage_micros[kStageFetch], 0);
  EXPECT_GT(report->stage_micros[kStageParsePlan], 0);
  // The wall stages partition the end-to-end latency: never above it, and
  // the untimed residue is small (25% unit-test slack; the bench gates the
  // steady-state gap at 5% with a dominant fetch).
  EXPECT_LE(wall_sum, report->latency_us);
  EXPECT_GE(static_cast<double>(wall_sum),
            0.75 * static_cast<double>(report->latency_us));
  // Detail stages: the RTT of every attempt was seen.
  EXPECT_GT(report->stage_micros[kStageMarketRtt], 0);
}

TEST_F(StageDecompositionTest, AdmissionStageNeverExceedsFetch) {
  // 16 binding values through a window of 4: most calls queue behind
  // earlier ones. The admission stage is the wall-clock union of the
  // query's waits, so it fits inside the fetch stage that contains them.
  PayLessConfig config;
  config.optimizer.use_sqr = false;  // one point call per binding value
  config.stats_kind = stats::StatsKind::kUniform;
  config.enable_plan_cache = false;
  config.max_parallel_calls = 4;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  client.connector()->SetSimulatedLatencyMicros(2000);

  const std::vector<Value> params = {Value(int64_t{1}), Value(kNumStations)};
  const Result<QueryReport> report = client.QueryWithReport(kBindSql, params);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->exec.calls, kNumStations);
  EXPECT_LE(report->stage_micros[kStageAdmissionWait],
            report->stage_micros[kStageFetch]);
}

TEST_F(StageDecompositionTest, ExplainAnalyzeRendersLatencyFooter) {
  PayLess client(&cat_, market_.get(), PayLessConfig{});
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{4})};
  const Result<QueryReport> report = client.QueryWithReport(
      std::string("EXPLAIN ANALYZE ") + kBindSql, params);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_NE(report->plan_text.find("latency: "), std::string::npos)
      << report->plan_text;
  EXPECT_NE(report->plan_text.find("plan "), std::string::npos);
  EXPECT_NE(report->plan_text.find("market "), std::string::npos);
  EXPECT_NE(report->plan_text.find("eval "), std::string::npos);
}

TEST_F(StageDecompositionTest, TracingOffStillDecomposes) {
  PayLessConfig config;
  config.enable_tracing = false;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{4})};
  const Result<QueryReport> report = client.QueryWithReport(kBindSql, params);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_TRUE(report->trace.empty());
  EXPECT_GT(report->latency_us, 0);
  EXPECT_GT(report->stage_micros[kStageFetch], 0);
  // And the registry's HDR histograms saw the query.
  const std::string latency_json = client.observability()->metrics.ToJson();
  EXPECT_NE(latency_json.find("payless_latency_e2e_micros"),
            std::string::npos);
  EXPECT_NE(latency_json.find("payless_stage_fetch_micros"),
            std::string::npos);
}

TEST_F(StageDecompositionTest, CompletedQueriesLandInFlightRecorder) {
  PayLess client(&cat_, market_.get(), PayLessConfig{});
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{4})};
  ASSERT_TRUE(client.Query(kBindSql, params).ok());
  const FlightRecorder& recorder = client.observability()->flight_recorder;
  EXPECT_GT(recorder.recorded(), 0);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"kind\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stages\":{"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"OK\""), std::string::npos);
}

TEST_F(StageDecompositionTest, RecorderOffRecordsNothing) {
  PayLessConfig config;
  config.enable_flight_recorder = false;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{4})};
  ASSERT_TRUE(client.Query(kBindSql, params).ok());
  EXPECT_EQ(client.observability()->flight_recorder.recorded(), 0);
}

TEST_F(StageDecompositionTest, FailedQueryDumpsRingToConfiguredPath) {
  const std::string dump_path =
      (std::filesystem::temp_directory_path() / "payless_fr_error_dump.json")
          .string();
  std::filesystem::remove(dump_path);

  PayLessConfig config;
  config.flight_recorder_dump_path = dump_path;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_micros = 100;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());

  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{4})};
  ASSERT_TRUE(client.Query(kBindSql, params).ok());  // a healthy query first

  market::FaultProfile all_fail;
  all_fail.transient_rate = 1.0;  // every call drops until retries exhaust
  market::FaultInjector injector(all_fail);
  client.connector()->SetFaultInjector(&injector);
  const Result<QueryReport> failed = client.QueryWithReport(kBindSql, {
      Value(int64_t{9}), Value(int64_t{12})});
  ASSERT_TRUE(failed.ok());
  ASSERT_FALSE(failed->ok());
  client.connector()->SetFaultInjector(nullptr);

  // The dump exists, is well-formed, and contains BOTH the failing query's
  // entry and the healthy history before it.
  ASSERT_TRUE(std::filesystem::exists(dump_path));
  std::ifstream in(dump_path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  EXPECT_NE(dump.find("\"entries\":["), std::string::npos);
  EXPECT_NE(dump.find("\"status\":\"Unavailable\""), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"status\":\"OK\""), std::string::npos);
  std::filesystem::remove(dump_path);
}

TEST_F(StageDecompositionTest, InstrumentationLeavesBillingUnchanged) {
  // The acceptance invariant: recording latency must not move the billing
  // point. Same query stream with the recorder + HDR histograms on and
  // off — byte-identical transaction totals.
  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{8})};
  int64_t tx_on = 0, tx_off = 0;
  {
    PayLessConfig config;  // recorder on (default)
    PayLess client(&cat_, market_.get(), config);
    ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Query(kBindSql, params).ok());
    tx_on = client.meter().total_transactions();
  }
  {
    PayLessConfig config;
    config.enable_flight_recorder = false;
    config.enable_tracing = false;
    PayLess client(&cat_, market_.get(), config);
    ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Query(kBindSql, params).ok());
    tx_off = client.meter().total_transactions();
  }
  EXPECT_EQ(tx_on, tx_off);
}

TEST_F(StageDecompositionTest, ConcurrentIdenticalQueriesMeterCoalescing) {
  // Several threads race the SAME footprint through one client: their
  // point calls are byte-identical and overlap inside the scheduler's
  // in-flight window, so the coalescing-opportunity meter must fire.
  // (Billing still charges each delivered call — the meter only reports
  // what a dedup layer WOULD have saved; that is ROADMAP item 1's
  // baseline.)
  PayLessConfig config;
  config.stats_kind = stats::StatsKind::kUniform;
  config.enable_plan_cache = false;  // every thread re-plans and re-fetches
  config.optimizer.use_sqr = false;  // no store reuse: all calls hit market
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  client.connector()->SetSimulatedLatencyMicros(5000);

  const std::vector<Value> params = {Value(int64_t{1}),
                                     Value(kNumStations)};
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      if (!client.Query(kBindSql, params).ok()) failed.store(true);
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_FALSE(failed.load());

  MetricsRegistry& metrics = client.observability()->metrics;
  EXPECT_GT(metrics.GetCounter("payless_coalescable_calls_total")->value(),
            0);
  EXPECT_GT(
      metrics.GetCounter("payless_coalescable_transactions_total")->value(),
      0);

  // Single-call shape: each query is one plain call, a one-item batch.
  // The meter sees those too.
  PayLess single(&cat_, market_.get(), config);
  single.connector()->SetSimulatedLatencyMicros(50'000);
  constexpr const char* kPointSql =
      "SELECT Temperature FROM Weather "
      "WHERE StationID = 3 AND Date >= 1 AND Date <= 5";
  std::vector<std::thread> racers;
  std::atomic<int> one_call_queries{0};
  for (int t = 0; t < kThreads; ++t) {
    racers.emplace_back([&] {
      const Result<QueryReport> r = single.QueryWithReport(kPointSql);
      if (r.ok() && r->ok() && r->exec.calls == 1) one_call_queries++;
    });
  }
  for (std::thread& r : racers) r.join();
  EXPECT_EQ(one_call_queries.load(), kThreads);
  EXPECT_GE(single.observability()
                ->metrics.GetCounter("payless_coalescable_calls_total")
                ->value(),
            1);
}

}  // namespace
}  // namespace payless::obs
