// EXPLAIN / EXPLAIN ANALYZE and the estimator-accuracy loop, end-to-end:
//
//   - `EXPLAIN <query>` renders the plan without billing or caching;
//   - `EXPLAIN ANALYZE <query>` executes, shows the measured per-access
//     actuals (retries and waste included, with or without a trace) and
//     reports the transaction q-error;
//   - the cold (uniform) estimate on a bind join is off by the cold-start
//     factor, and after one round of feedback the warm q-error is no
//     worse (the paper's §4.3 refinement, observable in the output);
//   - a drifting estimate ticks the staleness epoch and makes the plan
//     cache re-optimize into a different (cheaper) plan — the
//     uniform-to-learned plan switch — while a disabled threshold keeps
//     serving the stale cached plan.
//
// Plus unit coverage for AccuracyTracker.
#include "obs/explain.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exec/payless.h"
#include "market/data_market.h"
#include "market/fault_injector.h"
#include "obs/accuracy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace payless::obs {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::ConsistencyLevel;
using exec::PayLess;
using exec::PayLessConfig;
using exec::QueryReport;

// ---------------------------------------------------------------------------
// AccuracyTracker unit tests.

TEST(AccuracyTrackerTest, QErrorIsSymmetricAndAtLeastOne) {
  EXPECT_DOUBLE_EQ(AccuracyTracker::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(AccuracyTracker::QError(10, 50), 5.0);
  EXPECT_DOUBLE_EQ(AccuracyTracker::QError(50, 10), 5.0);
  // Zero-row sides clamp to 1 instead of dividing by zero.
  EXPECT_DOUBLE_EQ(AccuracyTracker::QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(AccuracyTracker::QError(0, 8), 8.0);
  EXPECT_DOUBLE_EQ(AccuracyTracker::QError(8, 0), 8.0);
}

TEST(AccuracyTrackerTest, RecordOnlyRecords) {
  AccuracyTracker tracker(nullptr);
  tracker.Record("T", 100, 100);  // q-error 1
  tracker.Record("T", 100, 500);  // q-error 5
  tracker.Record("T", 1, 1000);
  // The drift rule is the client's (PayLess::AbsorbHarvest): recording a
  // q-error, however large, never ticks the epoch.
  EXPECT_EQ(tracker.drift_epoch(), 0u);
  tracker.CountDriftTick();
  EXPECT_EQ(tracker.drift_epoch(), 1u);

  const AccuracySnapshot snap = tracker.Snapshot("T");
  EXPECT_EQ(snap.samples, 3u);
  EXPECT_DOUBLE_EQ(snap.last_qerror, 1000.0);
  EXPECT_DOUBLE_EQ(snap.max_qerror, 1000.0);
  EXPECT_GT(snap.mean_qerror(), 1.0);
  EXPECT_EQ(tracker.total_samples(), 3u);
  // Unknown tables answer an empty snapshot, not a crash.
  EXPECT_EQ(tracker.Snapshot("nope").samples, 0u);
}

TEST(AccuracyTrackerTest, ExportsMetricsUnderSanitizedNames) {
  MetricsRegistry metrics;
  AccuracyTracker tracker(&metrics);
  tracker.Record("My-Table", 10, 40);  // q-error 4
  tracker.Record("My-Table", 10, 10);  // q-error 1
  tracker.CountDriftTick();
  const std::string text = metrics.ToPrometheusText();
  // One q-error summary per table, fixed-point x100: its count is the
  // tracker's sample count and its sum the q-errors' (400 + 100).
  EXPECT_NE(text.find("# TYPE payless_qerror_x100_My_Table summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("payless_qerror_x100_My_Table_count 2"),
            std::string::npos)
      << text;
  EXPECT_EQ(tracker.Snapshot("My-Table").samples, 2u);
  EXPECT_NE(text.find("payless_qerror_x100_My_Table_sum 500"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("payless_stats_drift_ticks_total 1"),
            std::string::npos);
}

TEST(AccuracyTrackerTest, SanitizeMetricName) {
  EXPECT_EQ(AccuracyTracker::SanitizeMetricName("a-b.c d/e"), "a_b_c_d_e");
  EXPECT_EQ(AccuracyTracker::SanitizeMetricName("Ok_name:42"), "Ok_name:42");
}

// ---------------------------------------------------------------------------
// End-to-end: a bind join whose published cardinality is wrong by 50x.
//
// Hosted(Key bound 1..100, Val) claims 100 rows but hosts 5'000 (50 per
// key); 10 tuples per transaction. The local table binds 20 keys, so the
// uniform plan estimates 20 calls x ceil(1/10) = 20 transactions while the
// market actually bills 20 x ceil(50/10) = 100.
class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"MKT", 1.0, 10}).ok());
    TableDef hosted;
    hosted.name = "Hosted";
    hosted.dataset = "MKT";
    hosted.columns = {ColumnDef::Bound("Key", ValueType::kInt64,
                                       AttrDomain::Numeric(1, 100)),
                      ColumnDef::Output("Val", ValueType::kDouble)};
    hosted.cardinality = 100;  // published stats: off by 50x
    ASSERT_TRUE(cat_.RegisterTable(hosted).ok());

    TableDef keys;
    keys.name = "Keys";
    keys.is_local = true;
    keys.columns = {ColumnDef::Free("Key", ValueType::kInt64,
                                    AttrDomain::Numeric(1, 100))};
    keys.cardinality = 20;
    ASSERT_TRUE(cat_.RegisterTable(keys).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t key = 1; key <= 100; ++key) {
      for (int64_t i = 0; i < 50; ++i) {
        rows.push_back(Row{Value(key), Value(static_cast<double>(key + i))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Hosted", std::move(rows)).ok());
    for (int64_t key = 1; key <= 20; ++key) {
      key_rows_.push_back(Row{Value(key)});
    }
  }

  std::unique_ptr<PayLess> NewClient(PayLessConfig config = {}) {
    // Full consistency: the warm run must go back to the market (otherwise
    // the semantic store serves it for free and there is nothing to
    // measure). Serial calls keep the feedback order deterministic.
    config.consistency = ConsistencyLevel::kFull;
    config.max_parallel_calls = 1;
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    EXPECT_TRUE(client->LoadLocalTable("Keys", key_rows_).ok());
    return client;
  }

  /// The q-error printed on the "actual:" line right below the bind-join
  /// access line; -1 when absent.
  static double BindJoinQError(const std::string& text) {
    const size_t access = text.find("bind-join Hosted");
    if (access == std::string::npos) return -1;
    const size_t marker = text.find("q-error(txn) ", access);
    if (marker == std::string::npos) return -1;
    return std::strtod(text.c_str() + marker + 13, nullptr);
  }

  static constexpr const char* kJoinSql =
      "SELECT Val FROM Keys, Hosted WHERE Keys.Key = Hosted.Key";

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> key_rows_;
};

TEST_F(ExplainAnalyzeTest, ExplainRendersPlanWithoutSpendingOrCaching) {
  auto client = NewClient();
  Result<QueryReport> r =
      client->QueryWithReport(std::string("EXPLAIN ") + kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->transactions_spent, 0);
  EXPECT_EQ(client->meter().total_transactions(), 0);
  EXPECT_EQ(client->plan_cache().Stats().entries, 0u);

  // The result relation is the rendered text, one line per row.
  ASSERT_EQ(r->result.schema().num_columns(), 1u);
  EXPECT_EQ(r->result.schema().column(0).name, "QUERY PLAN");
  EXPECT_GT(r->result.num_rows(), 0u);

  const std::string& text = r->plan_text;
  EXPECT_NE(text.find("Plan[cost="), std::string::npos) << text;
  EXPECT_NE(text.find("bind-join Hosted on (Key)"), std::string::npos);
  EXPECT_NE(text.find("~20 bind values"), std::string::npos);
  EXPECT_NE(text.find("planning: evaluated_plans="), std::string::npos);
  EXPECT_NE(text.find("stats: Hosted buckets="), std::string::npos);
  // No ANALYZE: no actuals, no spend line.
  EXPECT_EQ(text.find("actual:"), std::string::npos);
  EXPECT_EQ(text.find("spent:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, WarmQErrorIsNoWorseThanCold) {
  auto client = NewClient();
  const std::string sql = std::string("EXPLAIN ANALYZE ") + kJoinSql;

  // Cold: the uniform estimate prices the bind join at 20 transactions;
  // the market bills 100. The rendering shows both and their q-error.
  Result<QueryReport> cold = client->QueryWithReport(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->error.ok()) << cold->error.ToString();
  EXPECT_EQ(cold->transactions_spent, 100);
  const std::string& cold_text = cold->plan_text;
  EXPECT_NE(cold_text.find("bind-join Hosted on (Key) ~20 txn"),
            std::string::npos)
      << cold_text;
  EXPECT_NE(cold_text.find("actual: 100 txn, 20 calls, 1000 rows"),
            std::string::npos)
      << cold_text;
  EXPECT_NE(cold_text.find("spent: 100 txn"), std::string::npos);
  const double cold_q = BindJoinQError(cold_text);
  EXPECT_DOUBLE_EQ(cold_q, 5.0) << cold_text;

  // The per-call misestimates (1 row expected, 50 delivered) were recorded
  // at the feedback point and crossed the drift threshold.
  EXPECT_GT(client->accuracy().Snapshot("Hosted").max_qerror, 2.0);
  EXPECT_GE(client->accuracy().drift_epoch(), 1u);

  // Warm: the feedback histogram has absorbed the true per-key counts and
  // the re-optimized plan prices the same join materially better. (Not
  // perfectly: point-region feedback smears across histogram buckets, so
  // the warm estimate lands near — not at — the true 100.)
  Result<QueryReport> warm = client->QueryWithReport(sql);
  ASSERT_TRUE(warm.ok() && warm->error.ok());
  const double warm_q = BindJoinQError(warm->plan_text);
  ASSERT_GE(warm_q, 1.0) << warm->plan_text;
  EXPECT_LT(warm_q, cold_q);
  EXPECT_LE(warm_q, 3.0) << warm->plan_text;
}

/// Counts the traces a client sends.
class CountingSink : public TraceSink {
 public:
  void Emit(const std::string&, uint64_t, const std::vector<SpanRecord>&)
      override {
    ++emitted;
  }
  int emitted = 0;
};

TEST_F(ExplainAnalyzeTest, AnalyzeWorksWithTracingDisabled) {
  Observability context;
  CountingSink sink;
  context.trace_sink = &sink;
  PayLessConfig config;
  config.enable_tracing = false;
  config.observability = &context;
  auto client = NewClient(config);
  Result<QueryReport> r = client->QueryWithReport(
      std::string("EXPLAIN ANALYZE ") + kJoinSql);
  ASSERT_TRUE(r.ok() && r->error.ok());
  // The actuals come from the executor, not from spans: no trace is made.
  EXPECT_NE(r->plan_text.find("actual: 100 txn"), std::string::npos)
      << r->plan_text;
  EXPECT_TRUE(r->trace.empty());
  EXPECT_EQ(sink.emitted, 0);
}

// Lost responses are billed and retried: the access line shows exactly the
// retries and the wasted transactions the connector counted, whether or
// not the query is traced.
TEST_F(ExplainAnalyzeTest, LostResponsesShowAsRetriesAndWaste) {
  for (const bool tracing : {true, false}) {
    SCOPED_TRACE(tracing ? "traced" : "untraced");
    PayLessConfig config;
    config.enable_tracing = tracing;
    config.retry.max_attempts = 8;
    config.retry.initial_backoff_micros = 1;
    auto client = NewClient(config);
    market::FaultProfile profile;
    profile.lost_response_rate = 0.3;
    profile.transient_rate = 0.1;
    profile.seed = 5;
    market::FaultInjector injector(profile);
    client->connector()->SetFaultInjector(&injector);
    const market::RetryStats before = client->connector()->retry_stats();
    Result<QueryReport> r = client->QueryWithReport(
        std::string("EXPLAIN ANALYZE ") + kJoinSql);
    client->connector()->SetFaultInjector(nullptr);
    ASSERT_TRUE(r.ok() && r->error.ok());
    const market::RetryStats after = client->connector()->retry_stats();
    const int64_t retries = after.retries - before.retries;
    const int64_t wasted =
        after.wasted_transactions - before.wasted_transactions;
    ASSERT_GT(wasted, 0) << "no response was lost; change the seed";
    EXPECT_NE(r->plan_text.find("actual: 100 txn, 20 calls, 1000 rows, " +
                                std::to_string(retries) + " retries, " +
                                std::to_string(wasted) + " wasted txn"),
              std::string::npos)
        << r->plan_text;
    EXPECT_EQ(r->transactions_spent, 100 + wasted);
    EXPECT_EQ(r->transactions_by_dataset.at("MKT"), 100 + wasted);
  }
}

// An access that a mid-flight failure kept from running has no actuals:
// its line says so instead of showing zeros.
TEST_F(ExplainAnalyzeTest, UnreachedAccessRendersAsNotExecuted) {
  auto client = NewClient();
  Result<QueryReport> explained = client->Explain(kJoinSql);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  ASSERT_EQ(explained->plan.accesses.size(), 2u);
  Result<sql::SelectStmt> stmt = sql::Parse(kJoinSql);
  ASSERT_TRUE(stmt.ok());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, cat_, {});
  ASSERT_TRUE(bound.ok());
  std::vector<AccessActuals> actuals(2);
  actuals[0].present = true;
  actuals[0].rows = 20;
  ExplainContext context;
  context.actuals = &actuals;
  const std::string text = RenderExplain(explained->plan, *bound, context);
  EXPECT_NE(text.find("local Keys\n    actual: 0 txn, 0 calls, 20 rows\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bind-join Hosted on (Key)"), std::string::npos);
  EXPECT_NE(text.find("    actual: (not executed)\n"), std::string::npos)
      << text;
}

TEST_F(ExplainAnalyzeTest, ExplainTextNeverExecutes) {
  auto client = NewClient();
  Result<std::string> text = client->ExplainText(kJoinSql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("bind-join Hosted"), std::string::npos);
  EXPECT_EQ(client->meter().total_transactions(), 0);
  EXPECT_FALSE(client->ExplainText("SELECT nothing FROM nowhere").ok());
  // The API and the statement form render the same plan text.
  Result<QueryReport> statement =
      client->QueryWithReport(std::string("EXPLAIN ") + kJoinSql);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  EXPECT_EQ(*text, statement->plan_text);
}

// ---------------------------------------------------------------------------
// The uniform-to-learned plan switch: Wide(Key free 1..100) claims 100
// rows but hosts 5'000. Cold, a full download looks like 10 transactions
// (cheaper than a 20-value bind join at 20); it actually bills 500. The
// drift tick must force a re-optimization that switches to the bind join
// (100 transactions with learned stats) — unless drift invalidation is
// disabled, in which case the stale template keeps being served.
class PlanSwitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"MKT", 1.0, 10}).ok());
    TableDef wide;
    wide.name = "Wide";
    wide.dataset = "MKT";
    wide.columns = {ColumnDef::Free("Key", ValueType::kInt64,
                                    AttrDomain::Numeric(1, 100)),
                    ColumnDef::Output("Val", ValueType::kDouble)};
    wide.cardinality = 100;  // published stats: off by 50x
    ASSERT_TRUE(cat_.RegisterTable(wide).ok());

    TableDef keys;
    keys.name = "Keys";
    keys.is_local = true;
    keys.columns = {ColumnDef::Free("Key", ValueType::kInt64,
                                    AttrDomain::Numeric(1, 100))};
    keys.cardinality = 20;
    ASSERT_TRUE(cat_.RegisterTable(keys).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t key = 1; key <= 100; ++key) {
      for (int64_t i = 0; i < 50; ++i) {
        rows.push_back(Row{Value(key), Value(static_cast<double>(key + i))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Wide", std::move(rows)).ok());
    for (int64_t key = 1; key <= 20; ++key) {
      key_rows_.push_back(Row{Value(key)});
    }
  }

  std::unique_ptr<PayLess> NewClient(double threshold) {
    PayLessConfig config;
    config.consistency = ConsistencyLevel::kFull;
    config.max_parallel_calls = 1;
    config.qerror_invalidation_threshold = threshold;
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    EXPECT_TRUE(client->LoadLocalTable("Keys", key_rows_).ok());
    return client;
  }

  /// The single priced access of the plan (the one on Wide).
  static const core::AccessSpec& PricedAccess(const core::Plan& plan) {
    const core::AccessSpec* found = nullptr;
    for (const core::AccessSpec& access : plan.accesses) {
      if (!access.IsZeroPrice()) {
        EXPECT_EQ(found, nullptr) << "expected exactly one priced access";
        found = &access;
      }
    }
    EXPECT_NE(found, nullptr);
    return *found;
  }

  static constexpr const char* kJoinSql =
      "SELECT Val FROM Keys, Wide WHERE Keys.Key = Wide.Key";

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> key_rows_;
};

TEST_F(PlanSwitchTest, DriftInvalidationSwitchesToTheLearnedPlan) {
  auto client = NewClient(/*threshold=*/2.0);

  Result<QueryReport> cold = client->QueryWithReport(kJoinSql);
  ASSERT_TRUE(cold.ok() && cold->error.ok());
  EXPECT_EQ(PricedAccess(cold->plan).kind, core::AccessSpec::Kind::kPlain);
  EXPECT_EQ(cold->transactions_spent, 500);
  EXPECT_GE(client->accuracy().drift_epoch(), 1u);

  // The drift tick changed the cache key: plain miss, re-optimization
  // against the refined histogram, and the plan switches to the bind join.
  Result<QueryReport> warm = client->QueryWithReport(kJoinSql);
  ASSERT_TRUE(warm.ok() && warm->error.ok());
  EXPECT_EQ(warm->counters.plan_cache_hits, 0u);
  EXPECT_EQ(warm->counters.plan_cache_misses, 1u);
  EXPECT_EQ(PricedAccess(warm->plan).kind, core::AccessSpec::Kind::kBind);
  EXPECT_EQ(warm->transactions_spent, 100);
  EXPECT_EQ(warm->result.num_rows(), cold->result.num_rows());
}

TEST_F(PlanSwitchTest, DisabledThresholdKeepsServingTheStalePlan) {
  auto client = NewClient(/*threshold=*/0.0);

  Result<QueryReport> cold = client->QueryWithReport(kJoinSql);
  ASSERT_TRUE(cold.ok() && cold->error.ok());
  EXPECT_EQ(PricedAccess(cold->plan).kind, core::AccessSpec::Kind::kPlain);
  EXPECT_EQ(cold->transactions_spent, 500);
  EXPECT_EQ(client->accuracy().drift_epoch(), 0u);

  // No drift tick -> cache hit -> the stale full-download plan runs again
  // (results stay correct; only the price is suboptimal).
  Result<QueryReport> warm = client->QueryWithReport(kJoinSql);
  ASSERT_TRUE(warm.ok() && warm->error.ok());
  EXPECT_EQ(warm->counters.plan_cache_hits, 1u);
  EXPECT_EQ(PricedAccess(warm->plan).kind, core::AccessSpec::Kind::kPlain);
  EXPECT_EQ(warm->transactions_spent, 500);
  EXPECT_EQ(warm->result.num_rows(), cold->result.num_rows());
}

}  // namespace
}  // namespace payless::obs
