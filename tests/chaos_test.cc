// Chaos tests: the resilient connector against an injected-fault market.
//
// The invariants under test are the billing contract of the failure model:
//   1. transient faults and rate limits cost time, never money — after
//      retries, rows, billing and store contents equal the fault-free run;
//   2. a lost response (failure AFTER market evaluation) is billed by the
//      seller exactly once, surfaced as wasted spend, and listeners never
//      see it — the meter total is fault-free total + injected losses;
//   3. the per-dataset circuit breaker trips after consecutive failures,
//      rejects while open, half-opens after its cooldown and recovers;
//   4. deadlines fail fast (no sleeping past the budget) and surface
//      kDeadlineExceeded with the spend-so-far;
//   5. a query that dies mid-flight keeps everything it already delivered
//      in the semantic store, so re-issuing it never re-buys those rows.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"
#include "exec/reference.h"
#include "market/call_scheduler.h"
#include "federation/market_endpoint.h"
#include "market/fault_injector.h"
#include "obs/observability.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using market::CircuitBreakerSet;
using market::FaultInjector;
using market::FaultKind;
using market::FaultProfile;
using market::RetryPolicy;
using market::RetryStats;

constexpr int kNumStations = 16;
constexpr int kNumDates = 4;

/// Retry policy tuned for tests: quick backoff, plenty of attempts.
RetryPolicy TestPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_micros = 20;
  policy.max_backoff_micros = 200;
  return policy;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 5}).ok());

    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"US"})),
        ColumnDef::Bound("StationID", ValueType::kInt64,
                         AttrDomain::Numeric(1, kNumStations)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(1, kNumDates)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = kNumStations * kNumDates;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    TableDef station;
    station.name = "Station";
    station.dataset = "WHW";
    station.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, kNumStations))};
    station.cardinality = kNumStations;
    ASSERT_TRUE(cat_.RegisterTable(station).ok());

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
    std::vector<Row> weather_rows, station_rows;
    for (int64_t s = 1; s <= kNumStations; ++s) {
      station_rows.push_back(Row{Value("US"), Value(s)});
      for (int64_t d = 1; d <= kNumDates; ++d) {
        weather_rows.push_back(Row{Value("US"), Value(s), Value(d),
                                   Value(static_cast<double>(s * 100 + d))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Weather", std::move(weather_rows)).ok());
    ASSERT_TRUE(market_->HostTable("Station", std::move(station_rows)).ok());

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

  static std::vector<Row> SortedRows(const storage::Table& table) {
    std::vector<Row> rows = table.rows();
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Bind join driven by the local CityMap: CityId range -> StationID values.
  static constexpr const char* kBindSql =
      "SELECT Temperature FROM CityMap, Weather "
      "WHERE CityId >= ? AND CityId <= ? AND "
      "CityMap.StationID = Weather.StationID AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= ?";

  // Two PRICED market accesses: Station is fetched first (and absorbed by
  // the store), then Weather via bind join — the shape for testing
  // mid-query failure with money already spent.
  static constexpr const char* kTwoMarketSql =
      "SELECT Temperature FROM Station, Weather "
      "WHERE Station.Country = 'US' AND "
      "Station.StationID = Weather.StationID AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= ?";

  // The query mix used by the equivalence tests below.
  static std::vector<std::vector<Value>> ParamMix() {
    std::vector<std::vector<Value>> mix;
    mix.push_back({Value(int64_t{1}), Value(int64_t{6}),
                   Value(int64_t{kNumDates})});
    mix.push_back({Value(int64_t{4}), Value(int64_t{12}), Value(int64_t{2})});
    mix.push_back({Value(int64_t{1}), Value(int64_t{6}),
                   Value(int64_t{kNumDates})});  // repeat: store-reuse path
    mix.push_back({Value(int64_t{10}), Value(int64_t{16}),
                   Value(int64_t{kNumDates})});
    return mix;
  }

  /// Runs the mix on a fresh client with `profile` injected, and asserts
  /// rows / store contents / non-wasted billing match the fault-free
  /// baseline. Returns the chaos client's retry stats.
  RetryStats RunMixAndExpectBaselineEquivalence(const FaultProfile& profile) {
    auto baseline = NewClient();
    std::vector<std::vector<Row>> expected;
    for (const auto& params : ParamMix()) {
      Result<QueryReport> r = baseline->QueryWithReport(kBindSql, params);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->error.ok()) << r->error.ToString();
      expected.push_back(SortedRows(r->result));
    }

    PayLessConfig config;
    config.retry = TestPolicy();
    auto chaos = NewClient(config);
    FaultInjector injector(profile);
    chaos->connector()->SetFaultInjector(&injector);
    size_t i = 0;
    for (const auto& params : ParamMix()) {
      Result<QueryReport> r = chaos->QueryWithReport(kBindSql, params);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->error.ok()) << r->error.ToString();
      EXPECT_EQ(SortedRows(r->result), expected[i]) << "query " << i;
      ++i;
    }
    chaos->connector()->SetFaultInjector(nullptr);

    const RetryStats stats = chaos->connector()->retry_stats();
    // Non-wasted billing identical to the fault-free run; waste is exactly
    // the injected post-evaluation losses.
    EXPECT_EQ(chaos->meter().total_transactions() - stats.wasted_transactions,
              baseline->meter().total_transactions());
    EXPECT_EQ(chaos->store().TotalStoredRows(),
              baseline->store().TotalStoredRows());
    return stats;
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> city_rows_;
};

TEST_F(ChaosTest, TransientFaultsRetryToIdenticalResults) {
  FaultProfile profile;
  profile.transient_rate = 0.3;
  profile.latency_spike_rate = 0.1;
  profile.latency_spike_micros = 200;
  profile.seed = 11;
  const RetryStats stats = RunMixAndExpectBaselineEquivalence(profile);
  EXPECT_GT(stats.transient_faults, 0);
  EXPECT_GT(stats.retries, 0);
  // Pre-evaluation faults never cost money.
  EXPECT_EQ(stats.wasted_calls, 0);
  EXPECT_EQ(stats.wasted_transactions, 0);
}

TEST_F(ChaosTest, RateLimitsHonorRetryAfterAndCostNothing) {
  FaultProfile profile;
  profile.rate_limit_rate = 0.4;
  profile.retry_after_micros = 100;
  profile.seed = 12;
  const RetryStats stats = RunMixAndExpectBaselineEquivalence(profile);
  EXPECT_GT(stats.rate_limited, 0);
  EXPECT_EQ(stats.wasted_transactions, 0);
}

TEST_F(ChaosTest, LostResponsesAreBilledOnceAndDeliveredOnce) {
  // Listener-visible events == delivered results, never lost responses.
  auto baseline = NewClient();
  std::atomic<int64_t> baseline_deliveries{0};
  baseline->connector()->AddListener(
      [&](const market::RestCall&, const market::CallResult&) {
        baseline_deliveries.fetch_add(1);
      });
  std::vector<std::vector<Row>> expected;
  for (const auto& params : ParamMix()) {
    Result<QueryReport> r = baseline->QueryWithReport(kBindSql, params);
    ASSERT_TRUE(r.ok() && r->error.ok());
    expected.push_back(SortedRows(r->result));
  }

  PayLessConfig config;
  config.retry = TestPolicy();
  auto chaos = NewClient(config);
  std::atomic<int64_t> chaos_deliveries{0};
  chaos->connector()->AddListener(
      [&](const market::RestCall&, const market::CallResult&) {
        chaos_deliveries.fetch_add(1);
      });
  FaultProfile profile;
  profile.lost_response_rate = 0.3;
  profile.seed = 13;
  FaultInjector injector(profile);
  chaos->connector()->SetFaultInjector(&injector);
  size_t i = 0;
  int64_t reported_spend = 0;
  for (const auto& params : ParamMix()) {
    Result<QueryReport> r = chaos->QueryWithReport(kBindSql, params);
    ASSERT_TRUE(r.ok() && r->error.ok()) << r.status().ToString();
    EXPECT_EQ(SortedRows(r->result), expected[i++]);
    reported_spend += r->transactions_spent;
  }

  const RetryStats stats = chaos->connector()->retry_stats();
  EXPECT_GT(stats.wasted_calls, 0);
  // Each query reports what it was billed, lost responses included.
  EXPECT_EQ(reported_spend, chaos->meter().total_transactions());
  EXPECT_EQ(stats.wasted_calls, injector.stats().lost_responses);
  // The serial chaos run delivers exactly the baseline's call sequence:
  // every loss was retried until its result actually arrived.
  EXPECT_EQ(chaos_deliveries.load(), baseline_deliveries.load());
  // Meter = delivered + wasted; the meter's call count confirms listeners
  // saw every billed call except the lost ones.
  EXPECT_EQ(chaos->meter().total_calls() - stats.wasted_calls,
            chaos_deliveries.load());
  EXPECT_EQ(chaos->meter().total_transactions(),
            baseline->meter().total_transactions() +
                stats.wasted_transactions);
  EXPECT_EQ(chaos->store().TotalStoredRows(),
            baseline->store().TotalStoredRows());
}

TEST_F(ChaosTest, MixedChaosStillConvergesToBaseline) {
  FaultProfile profile;
  profile.transient_rate = 0.1;
  profile.lost_response_rate = 0.1;
  profile.rate_limit_rate = 0.1;
  profile.latency_spike_rate = 0.05;
  profile.latency_spike_micros = 150;
  profile.seed = 14;
  const RetryStats stats = RunMixAndExpectBaselineEquivalence(profile);
  EXPECT_GT(stats.retries, 0);
}

TEST_F(ChaosTest, RetriesExhaustedSurfaceSpendSoFarAndStoreIsReused) {
  // Fault-free twin for the expected totals.
  auto baseline = NewClient();
  Result<QueryReport> want = baseline->QueryWithReport(
      kTwoMarketSql, {Value(int64_t{kNumDates})});
  ASSERT_TRUE(want.ok() && want->error.ok());
  ASSERT_GT(want->exec.calls, 1) << "need >= 2 market calls for this test";

  PayLessConfig config;
  config.retry = TestPolicy();
  config.retry.max_attempts = 3;
  auto chaos = NewClient(config);
  // First call (the Station fetch) succeeds and is absorbed; every later
  // call drops until retries exhaust.
  FaultProfile all_fail;
  all_fail.transient_rate = 1.0;
  FaultInjector injector(all_fail);
  injector.Script(FaultKind::kNone);
  chaos->connector()->SetFaultInjector(&injector);

  Result<QueryReport> failed = chaos->QueryWithReport(
      kTwoMarketSql, {Value(int64_t{kNumDates})});
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_EQ(failed->error.code(), Status::Code::kUnavailable)
      << failed->error.ToString();
  // Spend-so-far: the delivered Station call is real money, visible in the
  // failed report.
  EXPECT_GT(failed->transactions_spent, 0);
  EXPECT_EQ(failed->transactions_spent,
            chaos->meter().total_transactions());
  EXPECT_GT(chaos->store().TotalStoredRows(), 0);

  // Market recovers; the re-issued query reuses the absorbed Station rows
  // and only pays for what is still missing — total spend across failure +
  // retry equals the fault-free total.
  chaos->connector()->SetFaultInjector(nullptr);
  Result<QueryReport> retried = chaos->QueryWithReport(
      kTwoMarketSql, {Value(int64_t{kNumDates})});
  ASSERT_TRUE(retried.ok() && retried->error.ok());
  EXPECT_EQ(SortedRows(retried->result), SortedRows(want->result));
  EXPECT_EQ(chaos->meter().total_transactions(),
            baseline->meter().total_transactions());
}

TEST_F(ChaosTest, FailedBindJoinCancelsSiblingCalls) {
  PayLessConfig config;
  config.retry.max_attempts = 1;  // fail immediately, no retries
  // Disable SQR so every binding value issues its own point call (the
  // value-set remainder path would merge them into one range call).
  config.optimizer.use_sqr = false;
  config.max_parallel_calls = 1;  // serial: cancellation is deterministic
  auto client = NewClient(config);
  FaultProfile all_fail;
  all_fail.transient_rate = 1.0;
  FaultInjector injector(all_fail);
  client->connector()->SetFaultInjector(&injector);

  Result<QueryReport> r = client->QueryWithReport(
      kBindSql,
      {Value(int64_t{1}), Value(int64_t{8}), Value(int64_t{kNumDates})});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->error.code(), Status::Code::kUnavailable);
  // 8 binding values: the first call fails, the remaining 7 are cancelled
  // unissued — a doomed access stops spending.
  EXPECT_EQ(r->exec.calls_cancelled, 7);
  EXPECT_EQ(client->meter().total_calls(), 0);
  EXPECT_EQ(injector.stats().decisions, 1);
}

TEST_F(ChaosTest, CircuitBreakerTripsRejectsAndRecovers) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.breaker_failure_threshold = 3;
  policy.breaker_cooldown_micros = 30'000;
  market::MarketConnector connector(market_.get());
  connector.SetRetryPolicy(policy);

  FaultProfile all_fail;
  all_fail.transient_rate = 1.0;
  FaultInjector injector(all_fail);
  connector.SetFaultInjector(&injector);

  market::RestCall call;
  call.table = "Weather";
  call.conditions.resize(4);
  call.conditions[1] = market::AttrCondition::Point(Value(int64_t{3}));

  // Three consecutive failures trip the breaker on the dataset.
  for (int i = 0; i < 3; ++i) {
    Result<market::CallResult> r = connector.Get(call);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kUnavailable);
  }
  EXPECT_EQ(connector.breaker_state("WHW"), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(connector.retry_stats().breaker_trips, 1);

  // While open: fail fast — the market (and the injector) is never reached.
  const int64_t decisions_before = injector.stats().decisions;
  Result<market::CallResult> rejected = connector.Get(call);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(injector.stats().decisions, decisions_before);
  EXPECT_EQ(connector.retry_stats().breaker_rejections, 1);

  // A failed half-open trial re-opens the breaker for another cooldown.
  std::this_thread::sleep_for(std::chrono::microseconds(40'000));
  Result<market::CallResult> trial = connector.Get(call);
  ASSERT_FALSE(trial.ok());
  EXPECT_EQ(connector.breaker_state("WHW"), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(connector.retry_stats().breaker_trips, 2);

  // Market recovers; after the cooldown the next trial closes the breaker.
  connector.SetFaultInjector(nullptr);
  std::this_thread::sleep_for(std::chrono::microseconds(40'000));
  Result<market::CallResult> recovered = connector.Get(call);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(connector.breaker_state("WHW"),
            CircuitBreakerSet::State::kClosed);
  Result<market::CallResult> after = connector.Get(call);
  EXPECT_TRUE(after.ok());
  // Nothing was billed while the breaker rejected or calls dropped: only
  // the two delivered calls are on the meter.
  EXPECT_EQ(connector.meter().total_calls(), 2);
}

TEST_F(ChaosTest, SchedulerHalfOpenWindowAdmitsExactlyOneProbe) {
  // The event-loop CallScheduler admits a whole window of calls at once;
  // when the dataset's breaker is half-open, that window must collapse to
  // a single probe — siblings are rejected without touching the market.
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.breaker_failure_threshold = 3;
  policy.breaker_cooldown_micros = 30'000;
  market::MarketConnector connector(market_.get());
  connector.SetRetryPolicy(policy);
  // Long enough that the probe is still in flight while its window
  // siblings hit admission.
  connector.SetSimulatedLatencyMicros(20'000);

  FaultProfile all_fail;
  all_fail.transient_rate = 1.0;
  FaultInjector injector(all_fail);
  connector.SetFaultInjector(&injector);

  std::vector<market::RestCall> calls(3);
  for (size_t i = 0; i < calls.size(); ++i) {
    calls[i].table = "Weather";
    calls[i].conditions.resize(4);
    calls[i].conditions[1] =
        market::AttrCondition::Point(Value(static_cast<int64_t>(i + 1)));
  }
  std::vector<market::CallScheduler::Item> items(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) items[i].call = &calls[i];

  // A full window of concurrent failures trips the breaker.
  auto outcomes = connector.scheduler()->ExecuteBatch(
      items, items.size(), /*cancel_on_error=*/false);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status().code(), Status::Code::kUnavailable);
  }
  EXPECT_EQ(connector.breaker_state("WHW"), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(connector.retry_stats().breaker_trips, 1);

  // While open: the whole batch is rejected at admission; the market (and
  // the injector) is never reached.
  int64_t decisions_before = injector.stats().decisions;
  outcomes = connector.scheduler()->ExecuteBatch(items, items.size(),
                                                 /*cancel_on_error=*/false);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status().code(), Status::Code::kUnavailable);
  }
  EXPECT_EQ(injector.stats().decisions, decisions_before);
  EXPECT_EQ(connector.retry_stats().breaker_rejections,
            static_cast<int64_t>(items.size()));

  // Cooldown elapses but the market is still down: the window admits ONE
  // half-open probe; everything else is rejected without a market decision.
  std::this_thread::sleep_for(std::chrono::microseconds(40'000));
  decisions_before = injector.stats().decisions;
  outcomes = connector.scheduler()->ExecuteBatch(items, items.size(),
                                                 /*cancel_on_error=*/false);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status().code(), Status::Code::kUnavailable);
  }
  EXPECT_EQ(injector.stats().decisions, decisions_before + 1);
  EXPECT_EQ(connector.breaker_state("WHW"), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(connector.retry_stats().breaker_trips, 2);

  // Market recovers: after another cooldown a successful probe closes the
  // breaker and the next full window flows. Only delivered calls billed.
  connector.SetFaultInjector(nullptr);
  connector.SetSimulatedLatencyMicros(0);
  std::this_thread::sleep_for(std::chrono::microseconds(40'000));
  const std::vector<market::CallScheduler::Item> probe{items[0]};
  outcomes = connector.scheduler()->ExecuteBatch(probe, 1,
                                                 /*cancel_on_error=*/false);
  ASSERT_TRUE(outcomes[0].has_value());
  EXPECT_TRUE(outcomes[0]->ok()) << outcomes[0]->status().ToString();
  EXPECT_EQ(connector.breaker_state("WHW"),
            CircuitBreakerSet::State::kClosed);
  outcomes = connector.scheduler()->ExecuteBatch(items, items.size(),
                                                 /*cancel_on_error=*/false);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->ok()) << outcome->status().ToString();
  }
  EXPECT_EQ(connector.meter().total_calls(),
            1 + static_cast<int64_t>(items.size()));
}

TEST_F(ChaosTest, HalfOpenProbeUnderSchedulerWindowIsBillingCorrect) {
  // End-to-end variant through PayLess with the event-loop scheduler. A
  // seeding query stores the middle of the Weather region, so the wide
  // follow-up's SQR remainder fans multiple cover-box calls into one
  // admission window. After the breaker trips and the market heals, the
  // first re-issue gets exactly one half-open probe through (its cover box
  // is bought once and absorbed); the next re-issue buys only what is
  // still missing and the TOTAL spend across every attempt equals the
  // fault-free bill.
  PayLessConfig base;
  base.max_parallel_calls = 4;
  base.retry.max_attempts = 1;
  base.retry.breaker_failure_threshold = 2;
  base.retry.breaker_cooldown_micros = 30'000;
  const std::vector<Value> seed_params{Value(int64_t{4}), Value(int64_t{12}),
                                       Value(int64_t{2})};
  const std::vector<Value> wide_params{Value(int64_t{1}), Value(int64_t{16}),
                                       Value(int64_t{kNumDates})};

  auto baseline = NewClient(base);
  ASSERT_TRUE(baseline->Query(kBindSql, seed_params).ok());
  Result<QueryReport> want = baseline->QueryWithReport(kBindSql, wide_params);
  ASSERT_TRUE(want.ok() && want->error.ok());
  ASSERT_GT(want->exec.calls, 1)
      << "need a multi-call remainder to exercise the admission window";

  auto chaos = NewClient(base);
  ASSERT_TRUE(chaos->Query(kBindSql, seed_params).ok());
  const int64_t seeded_tx = chaos->meter().total_transactions();
  const int64_t seeded_calls = chaos->meter().total_calls();
  chaos->connector()->SetSimulatedLatencyMicros(20'000);
  FaultProfile all_fail;
  all_fail.transient_rate = 1.0;
  FaultInjector injector(all_fail);
  chaos->connector()->SetFaultInjector(&injector);

  // The remainder window's concurrent failures trip the breaker; nothing
  // new is billed (transient drops never reach the market).
  Result<QueryReport> tripped = chaos->QueryWithReport(kBindSql, wide_params);
  ASSERT_TRUE(tripped.ok()) << tripped.status().ToString();
  EXPECT_EQ(tripped->error.code(), Status::Code::kUnavailable);
  EXPECT_EQ(chaos->connector()->breaker_state("WHW"),
            CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(chaos->meter().total_calls(), seeded_calls);

  // While open the query fails fast: no market decision, no billing.
  const int64_t decisions_before = injector.stats().decisions;
  Result<QueryReport> rejected = chaos->QueryWithReport(kBindSql, wide_params);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->error.code(), Status::Code::kUnavailable);
  EXPECT_EQ(injector.stats().decisions, decisions_before);
  EXPECT_EQ(chaos->meter().total_calls(), seeded_calls);

  // Market heals; cooldown elapses. The re-issue admits one probe into the
  // window; its siblings are rejected while the probe is in flight, so the
  // query still fails — but the probe's cover box is delivered, billed
  // once and absorbed, and its success closes the breaker.
  chaos->connector()->SetFaultInjector(nullptr);
  std::this_thread::sleep_for(std::chrono::microseconds(40'000));
  Result<QueryReport> probe_round =
      chaos->QueryWithReport(kBindSql, wide_params);
  ASSERT_TRUE(probe_round.ok());
  EXPECT_EQ(probe_round->error.code(), Status::Code::kUnavailable);
  EXPECT_EQ(chaos->meter().total_calls(), seeded_calls + 1);
  EXPECT_EQ(probe_round->transactions_spent,
            chaos->meter().total_transactions() - seeded_tx);
  EXPECT_EQ(chaos->connector()->breaker_state("WHW"),
            CircuitBreakerSet::State::kClosed);

  // Closed breaker: the final re-issue buys only the still-missing boxes,
  // and the all-in bill equals the fault-free twin's.
  chaos->connector()->SetSimulatedLatencyMicros(0);
  Result<QueryReport> final_round =
      chaos->QueryWithReport(kBindSql, wide_params);
  ASSERT_TRUE(final_round.ok() && final_round->error.ok())
      << final_round.status().ToString();
  EXPECT_EQ(SortedRows(final_round->result), SortedRows(want->result));
  EXPECT_EQ(chaos->meter().total_transactions(),
            baseline->meter().total_transactions());
  EXPECT_EQ(chaos->store().TotalStoredRows(),
            baseline->store().TotalStoredRows());
}

TEST_F(ChaosTest, PastDeadlineFailsBeforeSpendingAnything) {
  market::MarketConnector connector(market_.get());
  connector.SetRetryPolicy(TestPolicy());
  market::RestCall call;
  call.table = "Weather";
  call.conditions.resize(4);
  call.conditions[1] = market::AttrCondition::Point(Value(int64_t{3}));
  Result<market::CallResult> r =
      connector.Get(call, market::Clock::now() - std::chrono::microseconds(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(connector.meter().total_calls(), 0);
  EXPECT_EQ(connector.retry_stats().deadline_exceeded, 1);
}

TEST_F(ChaosTest, DeadlineRefusesToSleepThroughRetryAfter) {
  // A rate-limited market hints "retry after 80ms" but the query budget is
  // 5ms: the connector must give up with kDeadlineExceeded immediately
  // instead of sleeping past the deadline.
  PayLessConfig config;
  config.retry = TestPolicy();
  config.query_deadline_micros = 5'000;
  auto client = NewClient(config);
  FaultProfile throttle;
  throttle.rate_limit_rate = 1.0;
  throttle.retry_after_micros = 80'000;
  FaultInjector injector(throttle);
  client->connector()->SetFaultInjector(&injector);

  const auto start = market::Clock::now();
  Result<QueryReport> r = client->QueryWithReport(
      kBindSql,
      {Value(int64_t{1}), Value(int64_t{4}), Value(int64_t{kNumDates})});
  const auto elapsed = market::Clock::now() - start;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->error.code(), Status::Code::kDeadlineExceeded)
      << r->error.ToString();
  EXPECT_EQ(r->transactions_spent, 0);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            60'000);
}

TEST_F(ChaosTest, PerCallTimeoutBoundsEachCall) {
  RetryPolicy policy = TestPolicy();
  policy.call_timeout_micros = 2'000;
  policy.initial_backoff_micros = 5'000;  // one backoff blows the budget
  market::MarketConnector connector(market_.get());
  connector.SetRetryPolicy(policy);
  FaultProfile all_fail;
  all_fail.transient_rate = 1.0;
  FaultInjector injector(all_fail);
  connector.SetFaultInjector(&injector);

  market::RestCall call;
  call.table = "Weather";
  call.conditions.resize(4);
  call.conditions[1] = market::AttrCondition::Point(Value(int64_t{5}));
  Result<market::CallResult> r = connector.Get(call);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded);
}

TEST_F(ChaosTest, ScriptedFaultsReplayExactly) {
  // The scripted FIFO gives call-level determinism: fail, fail, succeed
  // consumes exactly three attempts.
  PayLessConfig config;
  config.retry = TestPolicy();
  auto client = NewClient(config);
  FaultInjector injector(FaultProfile{});  // all-quiet fallback
  injector.Script(FaultKind::kTransientDrop);
  injector.Script(FaultKind::kTransientDrop);
  injector.Script(FaultKind::kNone);
  client->connector()->SetFaultInjector(&injector);

  Result<QueryReport> r = client->QueryWithReport(
      kBindSql,
      {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{kNumDates})});
  ASSERT_TRUE(r.ok() && r->error.ok()) << r.status().ToString();
  const RetryStats stats = client->connector()->retry_stats();
  EXPECT_EQ(stats.transient_faults, 2);
  EXPECT_GE(stats.retries, 2);
}

// The point-call bind path's store-served branch. Weather binds on two
// edges (Country and StationID), so every binding combination is its own
// point call; combinations a previous query bought come from the store.
TEST_F(ChaosTest, PointPathServesHeldCombinationsFromTheStore) {
  const std::string sql =
      "SELECT Temperature FROM Station, Weather "
      "WHERE Station.Country = 'US' AND "
      "Station.Country = Weather.Country AND "
      "Station.StationID = Weather.StationID AND Date >= 1 AND Date <= 4";
  const storage::Database no_local_tables;
  const Result<storage::Table> expected =
      ReferenceEvaluate(cat_, *market_, no_local_tables, sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  std::vector<std::vector<Row>> rows_by_window;
  for (const size_t window : {1, 8}) {
    SCOPED_TRACE("window " + std::to_string(window));
    PayLessConfig config;
    config.max_parallel_calls = window;
    auto client = NewClient(config);
    // Buys stations 1-4 for every date.
    Result<QueryReport> warm = client->QueryWithReport(
        kBindSql,
        {Value(int64_t{1}), Value(int64_t{4}), Value(int64_t{kNumDates})});
    ASSERT_TRUE(warm.ok() && warm->error.ok()) << warm.status().ToString();

    Result<QueryReport> r = client->QueryWithReport(sql, {});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->error.ok()) << r->error.ToString();
    // One Station call plus a point call for each of the 12 stations the
    // store does not hold; the 4 held stations' 16 rows are free. Equal
    // at every window, like the rows and their order below.
    EXPECT_EQ(r->exec.calls, 13);
    EXPECT_EQ(r->transactions_spent, 16);
    EXPECT_EQ(r->exec.rows_from_cache, 16);
    EXPECT_EQ(r->result.num_rows(), 64u);
    EXPECT_TRUE(SameResult(r->result, *expected));
    rows_by_window.push_back(r->result.rows());
  }
  ASSERT_EQ(rows_by_window.size(), 2u);
  EXPECT_EQ(rows_by_window[0], rows_by_window[1]);
}

// Cross-market failover: the optimizer buys at the cheap primary endpoint,
// the primary's breaker opens mid-bind-join, the remaining sibling calls
// complete on the secondary — and the billed transactions reconcile
// EXACTLY: ledger total == primary meter + secondary meter, the delivered
// primary rows are never re-bought, and the per-market ledger cells match
// each endpoint's own meter. With SQR the binding values go out as
// remainder calls; without it, as one point call per value.
TEST_F(ChaosTest, CrossMarketFailoverMidBindJoinReconcilesExactly) {
  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{8}),
                                     Value(int64_t{kNumDates})};
  for (const bool use_sqr : {true, false}) {
    SCOPED_TRACE(use_sqr ? "use_sqr" : "no sqr");
    // Fault-free single-market baseline: the rows the failover run must
    // match.
    std::vector<Row> expected;
    int64_t baseline_txn = 0;
    {
      PayLessConfig config;
      config.optimizer.use_sqr = use_sqr;
      auto baseline = NewClient(config);
      Result<QueryReport> r = baseline->QueryWithReport(kBindSql, params);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->error.ok()) << r->error.ToString();
      expected = SortedRows(r->result);
      baseline_txn = baseline->meter().total_transactions();
    }

    federation::FederatedMarket federation(market_.get(), /*base_seed=*/7);
    federation::EndpointConfig primary;
    primary.id = "primary";
    primary.menu["WHW"] = federation::DatasetTerms{0.5, 5};  // the cheap site
    primary.inject_faults = true;
    primary.fault_profile.transient_rate = 1.0;  // dead after the script runs
    ASSERT_TRUE(federation.AddEndpoint(primary).ok());
    federation::EndpointConfig secondary;
    secondary.id = "secondary";
    secondary.menu["WHW"] = federation::DatasetTerms{1.0, 5};
    ASSERT_TRUE(federation.AddEndpoint(secondary).ok());

    obs::Observability obs;
    PayLessConfig config;
    config.observability = &obs;
    config.federation = &federation;
    config.optimizer.use_sqr = use_sqr;
    config.retry = TestPolicy();
    config.retry.max_attempts = 2;
    config.retry.breaker_failure_threshold = 2;         // opens mid-query
    config.retry.breaker_cooldown_micros = 10'000'000;  // stays open
    config.max_parallel_calls = 1;  // deterministic serial binding order
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    ASSERT_TRUE(client->LoadLocalTable("CityMap", city_rows_).ok());

    // Exactly the first primary call delivers (and is billed there); every
    // later primary call faults until retries exhaust and the breaker trips.
    federation.endpoint("primary")->injector()->Script(FaultKind::kNone);

    Result<QueryReport> r = client->QueryWithReport(kBindSql, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->error.ok()) << r->error.ToString();
    EXPECT_EQ(SortedRows(r->result), expected);

    auto* router = client->router();
    ASSERT_NE(router, nullptr);
    EXPECT_GE(router->failovers(), 1);

    int64_t primary_txn = 0, secondary_txn = 0;
    for (size_t i = 0; i < federation.num_endpoints(); ++i) {
      const int64_t txn = router->connector(i)->meter().total_transactions();
      if (router->endpoint_id(i) == "primary") primary_txn = txn;
      if (router->endpoint_id(i) == "secondary") secondary_txn = txn;
    }
    // Money reached BOTH sellers: the delivered primary call stayed billed
    // at the primary, the rescued siblings were bought at the secondary,
    // and nothing was bought twice (total == the fault-free single-market
    // bill).
    EXPECT_GT(primary_txn, 0);
    EXPECT_GT(secondary_txn, 0);
    EXPECT_EQ(primary_txn + secondary_txn, baseline_txn);
    EXPECT_EQ(obs.ledger.total_transactions(), primary_txn + secondary_txn);
    EXPECT_EQ(obs.ledger.total_transactions(),
              router->TotalMeteredTransactions());
    if (!use_sqr) {
      // Eight point calls, one per station: the first delivered at the
      // primary, the other seven were bought at the secondary.
      EXPECT_EQ(primary_txn, 1);
      EXPECT_EQ(secondary_txn, 7);
      EXPECT_EQ(router->failovers(), 1);
    }

    // The ledger's per-market split reconciles with each endpoint's meter.
    int64_t cell_primary = 0, cell_secondary = 0;
    for (const auto& [dataset, cell] : obs.ledger.TenantByDataset("default")) {
      for (const auto& [site, txn] : cell.by_market) {
        if (site == "primary") cell_primary += txn;
        if (site == "secondary") cell_secondary += txn;
      }
    }
    EXPECT_EQ(cell_primary, primary_txn);
    EXPECT_EQ(cell_secondary, secondary_txn);

    Result<QueryReport> again = client->QueryWithReport(kBindSql, params);
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(again->error.ok());
    EXPECT_EQ(SortedRows(again->result), expected);
    if (use_sqr) {
      // A re-run reuses the store: every row is already owned, nobody
      // bills.
      EXPECT_EQ(router->TotalMeteredTransactions(),
                primary_txn + secondary_txn);
    } else {
      // Without SQR the re-run buys again. Its cached plan still names the
      // primary, whose open breaker sends every call on to the secondary;
      // the bill still reconciles.
      EXPECT_EQ(router->failovers(), 2);
      EXPECT_EQ(obs.ledger.total_transactions(),
                router->TotalMeteredTransactions());
    }
  }
}

}  // namespace
}  // namespace payless::exec
