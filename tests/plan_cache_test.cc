// The plan-template cache: hit/miss accounting, region-scoped drift
// invalidation (an estimator q-error beyond the configured threshold drops
// the cached plans priced over the region the feedback changed, and only
// those), consistency-horizon keying, parameter and template sensitivity of
// the key, the regression that serving a plan from the cache never changes
// what a query bills, and concurrent serving of a repeat-heavy real mix.
#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/payless.h"
#include "exec/reference.h"
#include "workload/bundle.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"EHR", 1.0, 100}).ok());
    TableDef pollution;
    pollution.name = "Pollution";
    pollution.dataset = "EHR";
    pollution.columns = {
        ColumnDef::Free("ZipCode", ValueType::kInt64,
                        AttrDomain::Numeric(10000, 10199)),
        ColumnDef::Free("Rank", ValueType::kInt64,
                        AttrDomain::Numeric(1, 2000)),
        ColumnDef::Output("Score", ValueType::kDouble)};
    pollution.cardinality = 2000;
    ASSERT_TRUE(cat_.RegisterTable(pollution).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t rank = 1; rank <= 2000; ++rank) {
      rows.push_back(Row{Value(10000 + rank % 200), Value(rank),
                         Value(static_cast<double>(rank) / 10)});
    }
    ASSERT_TRUE(market_->HostTable("Pollution", std::move(rows)).ok());

    // A heavily skewed table: the catalog claims 4000 rows spread over Rank
    // 1..2000 (2 per rank), but the market hosts 2000, all in Rank 1..100
    // (20 per rank).
    TableDef skewed;
    skewed.name = "Skewed";
    skewed.dataset = "EHR";
    skewed.columns = {ColumnDef::Free("Rank", ValueType::kInt64,
                                      AttrDomain::Numeric(1, 2000)),
                      ColumnDef::Output("Score", ValueType::kDouble)};
    skewed.cardinality = 4000;
    ASSERT_TRUE(cat_.RegisterTable(skewed).ok());
    std::vector<Row> skewed_rows;
    for (int64_t i = 0; i < 2000; ++i) {
      skewed_rows.push_back(
          Row{Value(i % 100 + 1), Value(static_cast<double>(i))});
    }
    ASSERT_TRUE(market_->HostTable("Skewed", std::move(skewed_rows)).ok());
  }

  std::unique_ptr<PayLess> NewClient(PayLessConfig config = {}) {
    return std::make_unique<PayLess>(&cat_, market_.get(), config);
  }

  static constexpr const char* kRangeSql =
      "SELECT * FROM Pollution WHERE Rank >= ? AND Rank <= ?";
  static constexpr const char* kSkewedSql =
      "SELECT * FROM Skewed WHERE Rank >= ? AND Rank <= ?";

  static std::vector<Value> Range(int64_t lo, int64_t hi) {
    return {Value(lo), Value(hi)};
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
};

TEST(NormalizeSqlTemplateTest, CollapsesWhitespaceAndKeywordCase) {
  EXPECT_EQ(core::NormalizeSqlTemplate("SELECT  *\n FROM  T WHERE a = ?"),
            core::NormalizeSqlTemplate("select * from T where a = ?"));
  // Identifiers and string literals are case-sensitive in this dialect, so
  // normalization must preserve both.
  EXPECT_NE(core::NormalizeSqlTemplate("SELECT * FROM T WHERE a = 'US'"),
            core::NormalizeSqlTemplate("SELECT * FROM T WHERE a = 'us'"));
  EXPECT_NE(core::NormalizeSqlTemplate("SELECT * FROM T WHERE a = ?"),
            core::NormalizeSqlTemplate("SELECT * FROM t WHERE a = ?"));
  EXPECT_EQ(core::NormalizeSqlTemplate("SELECT * FROM T WHERE a='X'  "),
            core::NormalizeSqlTemplate("select * from T where a ='X'"));
  // A quoted literal can never collide with an identifier spelled alike.
  EXPECT_NE(core::NormalizeSqlTemplate("SELECT abc FROM T"),
            core::NormalizeSqlTemplate("SELECT 'abc' FROM T"));
}

TEST_F(PlanCacheTest, HitWhileEstimatesHoldAndAfterDriftElsewhere) {
  // The fixture data is perfectly uniform, so the uniform estimator is
  // exact (q-error 1) and the drift epoch never ticks on Pollution.
  auto client = NewClient();

  // Query 1: cold cache -> miss, inserts under the current drift epoch.
  Result<QueryReport> r1 = client->QueryWithReport(kRangeSql, Range(1, 250));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->counters.plan_cache_misses, 1u);
  EXPECT_EQ(r1->counters.plan_cache_hits, 0u);

  // Query 2, same template+params: estimates were accurate, no drift ->
  // hit, even though query 1 grew the semantic store. This run is fully
  // covered by the store: no calls, nothing billed.
  Result<QueryReport> r2 = client->QueryWithReport(kRangeSql, Range(1, 250));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->counters.plan_cache_hits, 1u);
  EXPECT_EQ(r2->counters.plan_cache_misses, 0u);
  EXPECT_EQ(r2->transactions_spent, 0);
  EXPECT_EQ(r2->result.num_rows(), r1->result.num_rows());

  // Fetching fresh (still uniform) data grows the store again but keeps
  // q-error at 1, so the entry stays valid.
  Result<QueryReport> other =
      client->QueryWithReport(kRangeSql, Range(500, 600));
  ASSERT_TRUE(other.ok());
  EXPECT_GT(other->transactions_spent, 0);
  Result<QueryReport> r3 = client->QueryWithReport(kRangeSql, Range(1, 250));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->counters.plan_cache_hits, 1u);
  EXPECT_EQ(r3->counters.plan_cache_misses, 0u);

  const core::PlanCacheStats stats = client->plan_cache().Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_GE(stats.entries, 1u);
  EXPECT_EQ(client->accuracy().drift_epoch(), 0u);

  // Skewed's uniform estimate for Rank <= 100 is 200 rows; the market
  // returns 2000 -> q-error 10 >> threshold -> the drift epoch ticks...
  Result<QueryReport> skew = client->QueryWithReport(kSkewedSql, Range(1, 100));
  ASSERT_TRUE(skew.ok()) << skew.status().ToString();
  EXPECT_GE(client->accuracy().drift_epoch(), 1u);

  // ...but that feedback changed only Skewed's estimates, none of which
  // priced the Pollution template: it still hits.
  Result<QueryReport> r4 = client->QueryWithReport(kRangeSql, Range(1, 250));
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->counters.plan_cache_hits, 1u);
  EXPECT_EQ(r4->counters.plan_cache_misses, 0u);
}

/// The estimated rows of the plan's single access.
double EstRows(const QueryReport& report) {
  EXPECT_EQ(report.plan.accesses.size(), 1u);
  return report.plan.accesses.empty() ? -1.0
                                      : report.plan.accesses[0].est_rows;
}

TEST_F(PlanCacheTest, DriftTickDropsOnlyTemplatesOverItsRegion) {
  // kFull reuses nothing, so every run buys and feeds back.
  PayLessConfig config;
  config.consistency = ConsistencyLevel::kFull;
  auto client = NewClient(config);
  const std::vector<Value> hot = Range(1, 100);

  // The first run's harvest corrects the estimate (200 -> 2000 rows),
  // ticks, and drops the template it just cached. The re-plan is exact,
  // so its harvest does not tick and the template stays.
  Result<QueryReport> first = client->QueryWithReport(kSkewedSql, hot);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(client->accuracy().drift_epoch(), 1u);
  Result<QueryReport> exact = client->QueryWithReport(kSkewedSql, hot);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->counters.plan_cache_misses, 1u);
  EXPECT_DOUBLE_EQ(EstRows(*exact), 2000.0);
  EXPECT_EQ(client->accuracy().drift_epoch(), 1u);
  Result<QueryReport> hit = client->QueryWithReport(kSkewedSql, hot);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->counters.plan_cache_hits, 1u);

  // A disjoint tick: Rank 1001..1200 is estimated at 400 rows and holds
  // none. The hot template was priced over Rank 1..100 only: it keeps its
  // hit.
  ASSERT_TRUE(client->QueryWithReport(kSkewedSql, Range(1001, 1200)).ok());
  EXPECT_EQ(client->accuracy().drift_epoch(), 2u);
  Result<QueryReport> kept = client->QueryWithReport(kSkewedSql, hot);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->counters.plan_cache_hits, 1u);
  EXPECT_EQ(kept->counters.plan_cache_misses, 0u);

  // An overlapping tick: Rank 90..300 is estimated at 220 + 400 rows and
  // holds 220. Its feedback rescales Rank 90..100 as well, so the hot
  // template misses and re-plans on the learned estimate.
  ASSERT_TRUE(client->QueryWithReport(kSkewedSql, Range(90, 300)).ok());
  EXPECT_EQ(client->accuracy().drift_epoch(), 3u);
  const double learned =
      client->stats().EstimateRows("Skewed", Box({Interval(1, 100)}));
  EXPECT_LT(learned, 2000.0);
  Result<QueryReport> replanned = client->QueryWithReport(kSkewedSql, hot);
  ASSERT_TRUE(replanned.ok());
  EXPECT_EQ(replanned->counters.plan_cache_misses, 1u);
  EXPECT_DOUBLE_EQ(EstRows(*replanned), learned);
  EXPECT_EQ(replanned->result.num_rows(), first->result.num_rows());
}

TEST_F(PlanCacheTest, CategoricalSpanInvalidatesThroughItsLegalizedRegion) {
  // SQL pins a categorical column to one value or leaves it whole, so this
  // builds the bound query by hand: Country spans DE..FR of four values,
  // which a market call can only buy as the whole domain.
  TableDef sales;
  sales.name = "Sales";
  sales.dataset = "EHR";
  sales.columns = {
      ColumnDef::Free("Country", ValueType::kString,
                      AttrDomain::Categorical({"DE", "FR", "UK", "US"})),
      ColumnDef::Free("Rank", ValueType::kInt64, AttrDomain::Numeric(1, 100)),
      ColumnDef::Output("Amount", ValueType::kDouble)};
  sales.cardinality = 400;
  ASSERT_TRUE(cat_.RegisterTable(sales).ok());
  const TableDef* def = cat_.FindTable("Sales");
  const Interval countries = def->columns[0].domain.ToInterval();
  ASSERT_EQ(countries.Width(), 4);

  sql::BoundQuery query;
  sql::BoundRelation rel;
  rel.def = def;
  rel.conditions = {
      market::AttrCondition::Range(countries.lo, countries.lo + 1),
      market::AttrCondition::Range(1, 50), market::AttrCondition::None()};
  query.relations.push_back(rel);
  ASSERT_EQ(rel.QueryRegion(),
            Box({Interval(countries.lo, countries.lo + 1), Interval(1, 50)}));

  const std::vector<core::PricedRegion> priced = core::PricedRegionsOf(query);
  ASSERT_EQ(priced.size(), 1u);
  EXPECT_EQ(priced[0].table, def);
  EXPECT_EQ(priced[0].region, Box({countries, Interval(1, 50)}));

  core::PlanCache cache;
  core::CachedPlan entry;
  entry.priced = priced;
  ASSERT_TRUE(cache.Insert("sales", entry, cache.invalidations()));
  // Ranks the query does not read: nothing is dropped.
  EXPECT_EQ(cache.Invalidate(def, Box({countries, Interval(51, 100)})), 0u);
  EXPECT_NE(cache.Lookup("sales"), nullptr);
  // A tick on US, outside the DE..FR span but inside the legalized region.
  const Box us({Interval::Point(countries.hi), Interval(1, 50)});
  EXPECT_EQ(cache.Invalidate(def, us), 1u);
  EXPECT_EQ(cache.Lookup("sales"), nullptr);
  // An insert whose optimization started before that invalidation is
  // refused.
  EXPECT_FALSE(cache.Insert("sales", entry, cache.invalidations() - 1));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST_F(PlanCacheTest, DistinctParamsAreDistinctKeys) {
  auto client = NewClient();
  ASSERT_TRUE(client->Query(kRangeSql, Range(1, 100)).ok());
  // Same template, different params: must not hit the (1,100) entry.
  Result<QueryReport> r = client->QueryWithReport(kRangeSql, Range(1, 200));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->counters.plan_cache_hits, 0u);
}

TEST_F(PlanCacheTest, TemplateNormalizationSharesEntries) {
  auto client = NewClient();
  const std::string sql_a =
      "SELECT * FROM Pollution WHERE Rank >= ? AND Rank <= ?";
  const std::string sql_b =
      "select  *  from Pollution\n where Rank >= ? and Rank <= ?";
  ASSERT_TRUE(client->Query(sql_a, Range(1, 250)).ok());   // miss, insert
  ASSERT_TRUE(client->Query(sql_a, Range(1, 250)).ok());   // miss (stale)
  Result<QueryReport> r = client->QueryWithReport(sql_b, Range(1, 250));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->counters.plan_cache_hits, 1u);
}

TEST_F(PlanCacheTest, ConsistencyHorizonIsPartOfTheKey) {
  PayLessConfig config;
  config.consistency = ConsistencyLevel::kXWeek;
  config.consistency_weeks = 2;
  auto client = NewClient(config);

  ASSERT_TRUE(client->Query(kRangeSql, Range(1, 250)).ok());
  ASSERT_TRUE(client->Query(kRangeSql, Range(1, 250)).ok());
  Result<QueryReport> hit = client->QueryWithReport(kRangeSql, Range(1, 250));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->counters.plan_cache_hits, 1u);

  // Advancing the clock moves the consistency horizon: cached plans made
  // under the old horizon must not be served.
  client->SetCurrentWeek(client->current_week() + 1);
  Result<QueryReport> miss = client->QueryWithReport(kRangeSql, Range(1, 250));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->counters.plan_cache_hits, 0u);
  EXPECT_EQ(miss->counters.plan_cache_misses, 1u);
}

TEST_F(PlanCacheTest, DisabledCacheBypassesEverything) {
  PayLessConfig config;
  config.enable_plan_cache = false;
  auto client = NewClient(config);
  for (int i = 0; i < 3; ++i) {
    Result<QueryReport> r = client->QueryWithReport(kRangeSql, Range(1, 250));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->counters.plan_cache_hits, 0u);
    EXPECT_EQ(r->counters.plan_cache_misses, 0u);
  }
  const core::PlanCacheStats stats = client->plan_cache().Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(PlanCacheTest, ExplainNeverTouchesTheCache) {
  auto client = NewClient();
  Result<QueryReport> e = client->Explain(kRangeSql, Range(1, 250));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->counters.plan_cache_hits, 0u);
  EXPECT_EQ(e->counters.plan_cache_misses, 0u);
  EXPECT_EQ(client->plan_cache().Stats().entries, 0u);
  EXPECT_EQ(client->plan_cache().Stats().misses, 0u);
}

// Regression: a plan served from the cache must bill exactly what a fresh
// optimization would, over an entire learning sequence with repeats.
TEST_F(PlanCacheTest, CachedPlansNeverChangeBilling) {
  PayLessConfig cached_config;
  cached_config.enable_plan_cache = true;
  PayLessConfig fresh_config;
  fresh_config.enable_plan_cache = false;
  auto cached = NewClient(cached_config);
  auto fresh = NewClient(fresh_config);

  const std::vector<std::vector<Value>> sequence = {
      Range(1, 250),  Range(1, 250),   Range(1, 250),  Range(100, 400),
      Range(1, 250),  Range(350, 800), Range(100, 400), Range(1, 250),
      Range(350, 800), Range(1, 2000),  Range(1, 250),  Range(1, 2000),
  };
  for (const auto& params : sequence) {
    Result<QueryReport> a = cached->QueryWithReport(kRangeSql, params);
    Result<QueryReport> b = fresh->QueryWithReport(kRangeSql, params);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->transactions_spent, b->transactions_spent);
    EXPECT_EQ(a->result.num_rows(), b->result.num_rows());
  }
  EXPECT_GT(cached->plan_cache().Stats().hits, 0u);
  EXPECT_EQ(cached->meter().total_transactions(),
            fresh->meter().total_transactions());
}

// Four callers share one client on a Zipf-hot repeat mix of the real
// workload: cached plans and the region-scoped drift invalidations racing
// them must never change a result or lose a billed transaction.
TEST_F(PlanCacheTest, ConcurrentZipfRepeatMixStaysCorrect) {
  workload::RealDataOptions options;
  options.scale = 0.04;
  const std::unique_ptr<workload::Bundle> bundle =
      workload::MakeRealBundle(options, /*per_template=*/10, /*query_seed=*/7);
  std::vector<std::vector<size_t>> by_template;
  for (size_t i = 0; i < bundle->queries.size(); ++i) {
    const size_t t = bundle->queries[i].template_id;
    if (by_template.size() <= t) by_template.resize(t + 1);
    by_template[t].push_back(i);
  }
  // Each caller draws a uniform template and a Zipf(1)-ranked instance.
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 30;
  const ZipfDistribution zipf(
      static_cast<int64_t>(by_template.front().size()), 1.0);
  std::vector<std::vector<size_t>> draws(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    Rng rng(1000 + static_cast<uint64_t>(c));
    for (int i = 0; i < kQueriesPerThread; ++i) {
      const std::vector<size_t>& ids =
          by_template[rng.Index(by_template.size())];
      const int64_t rank = std::min<int64_t>(
          zipf.Sample(&rng), static_cast<int64_t>(ids.size()));
      draws[c].push_back(ids[static_cast<size_t>(rank - 1)]);
    }
  }

  storage::Database local_db;
  for (const auto& [name, rows] : bundle->local_tables) {
    ASSERT_TRUE(local_db.CreateTable(*bundle->catalog.FindTable(name)).ok());
    ASSERT_TRUE(local_db.InsertRows(name, rows).ok());
  }
  std::map<size_t, storage::Table> expected;
  for (const std::vector<size_t>& seq : draws) {
    for (const size_t id : seq) {
      if (expected.count(id) > 0) continue;
      const workload::QueryInstance& query = bundle->queries[id];
      Result<storage::Table> reference = ReferenceEvaluate(
          bundle->catalog, *bundle->market, local_db, query.sql, query.params);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      expected.emplace(id, std::move(*reference));
    }
  }

  auto client =
      workload::NewPayLessClient(*bundle, workload::PayLessFullConfig());
  std::atomic<int> failures{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      for (const size_t id : draws[c]) {
        const workload::QueryInstance& query = bundle->queries[id];
        Result<QueryReport> report =
            client->QueryWithReport(query.sql, query.params);
        if (!report.ok() || !report->error.ok()) {
          failures.fetch_add(1);
        } else if (!SameResult(report->result, expected.at(id))) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(client->plan_cache().Stats().hits, 0u);
  EXPECT_GT(client->accuracy().drift_epoch(), 0u);
  EXPECT_EQ(client->observability()->ledger.total_transactions(),
            client->meter().total_transactions());
}

}  // namespace
}  // namespace payless::exec
