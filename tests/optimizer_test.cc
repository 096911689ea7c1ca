// PayLess's optimizer (§4, Algorithm 2): plan choice, the three theorems,
// cost models, feasibility under binding patterns, counters, and
// equivalence between the reduced and exhaustive search strategies.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "obs/explain.h"
#include "sql/parser.h"

namespace payless::core {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 100}).ok());

    // The motivating-example shape: one station per city, June coverage.
    TableDef station;
    station.name = "Station";
    station.dataset = "WHW";
    std::vector<std::string> cities;
    for (int i = 0; i < 200; ++i) cities.push_back("C" + std::to_string(100 + i));
    station.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 200)),
        ColumnDef::Free("City", ValueType::kString,
                        AttrDomain::Categorical(cities))};
    station.cardinality = 200;
    ASSERT_TRUE(cat_.RegisterTable(station).ok());

    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 200)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(1, 30)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = 200 * 30;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    // A bind-only table: R(y^b, z^f) of Fig. 4.
    TableDef restricted;
    restricted.name = "Restricted";
    restricted.dataset = "WHW";
    restricted.columns = {
        ColumnDef::Bound("StationID", ValueType::kInt64,
                         AttrDomain::Numeric(1, 200)),
        ColumnDef::Output("Payload", ValueType::kDouble)};
    restricted.cardinality = 1000;
    ASSERT_TRUE(cat_.RegisterTable(restricted).ok());

    // Local table.
    TableDef zipmap;
    zipmap.name = "ZipMap";
    zipmap.is_local = true;
    zipmap.columns = {
        ColumnDef::Free("ZipCode", ValueType::kInt64,
                        AttrDomain::Numeric(1, 100)),
        ColumnDef::Free("City", ValueType::kString,
                        AttrDomain::Categorical(cities))};
    zipmap.cardinality = 100;
    ASSERT_TRUE(cat_.RegisterTable(zipmap).ok());

    // An unjoinable extra market table for the Theorem 3 case.
    TableDef island;
    island.name = "Island";
    island.dataset = "WHW";
    island.columns = {ColumnDef::Free("K", ValueType::kInt64,
                                      AttrDomain::Numeric(1, 1000))};
    island.cardinality = 500;
    ASSERT_TRUE(cat_.RegisterTable(island).ok());

    stats_ = std::make_unique<stats::StatsRegistry>(cat_);
    store_ = std::make_unique<semstore::SemanticStore>(cat_);
  }

  sql::BoundQuery BindSql(const std::string& sql,
                          std::vector<Value> params = {}) {
    Result<sql::SelectStmt> stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Result<sql::BoundQuery> bound = sql::Bind(*stmt, cat_, params);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(*bound);
  }

  Optimizer MakeOptimizer(OptimizerOptions options = {}) {
    return Optimizer(&cat_, stats_.get(), store_.get(), options);
  }

  catalog::Catalog cat_;
  std::unique_ptr<stats::StatsRegistry> stats_;
  std::unique_ptr<semstore::SemanticStore> store_;
};

TEST_F(OptimizerTest, SingleRelationPlainCall) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 1 AND "
      "Date <= 30");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->plan.accesses.size(), 1u);
  EXPECT_EQ(r->plan.accesses[0].kind, AccessSpec::Kind::kPlain);
  // 6000 rows / 100 per page = 60 transactions.
  EXPECT_EQ(r->plan.est_cost, 60);
}

TEST_F(OptimizerTest, BindJoinWinsWhenSelective) {
  // Fig. 1: one Seattle-like city => bind join at ~2 transactions beats the
  // 60-transaction range call.
  const sql::BoundQuery q = BindSql(
      "SELECT Temperature FROM Station, Weather "
      "WHERE City = 'C100' AND Station.Country = 'US' AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= 30 AND "
      "Station.StationID = Weather.StationID");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->plan.accesses.size(), 2u);
  EXPECT_EQ(r->plan.accesses[0].rel, 0u);  // Station first
  EXPECT_EQ(r->plan.accesses[1].kind, AccessSpec::Kind::kBind);
  EXPECT_LE(r->plan.est_cost, 3);
}

TEST_F(OptimizerTest, PlainWinsWhenBindingIsWide) {
  // No city filter: all 200 stations would bind; the range call wins
  // (the paper's 20-stations-15-in-Seattle counterexample, scaled).
  const sql::BoundQuery q = BindSql(
      "SELECT Temperature FROM Station, Weather "
      "WHERE Station.Country = 'US' AND Weather.Country = 'US' AND "
      "Date >= 1 AND Date <= 30 AND Station.StationID = Weather.StationID");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  const AccessSpec& weather_access = r->plan.accesses.back();
  EXPECT_EQ(weather_access.kind, AccessSpec::Kind::kPlain);
}

TEST_F(OptimizerTest, MinimizingCallsPrefersOneBigCall) {
  // Under the call-count model even a selective bind join loses to a single
  // range call once it needs more than one call.
  OptimizerOptions options;
  options.cost_model = CostModelKind::kCalls;
  options.use_sqr = false;
  const sql::BoundQuery q = BindSql(
      "SELECT Temperature FROM Station, Weather "
      "WHERE City = 'C100' AND Station.Country = 'US' AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= 30 AND "
      "Station.StationID = Weather.StationID");
  Result<OptimizeResult> r = MakeOptimizer(options).Optimize(q);
  ASSERT_TRUE(r.ok());
  // Station (1 call) + Weather (1 call): cost 2 calls.
  EXPECT_EQ(r->plan.est_cost, 2);
  EXPECT_EQ(r->plan.accesses.back().kind, AccessSpec::Kind::kPlain);
}

TEST_F(OptimizerTest, BindOnlyTableForcesBindJoin) {
  const sql::BoundQuery q = BindSql(
      "SELECT Payload FROM Station, Restricted "
      "WHERE City = 'C101' AND Country = 'US' AND "
      "Station.StationID = Restricted.StationID");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.accesses.back().kind, AccessSpec::Kind::kBind);
}

TEST_F(OptimizerTest, BindOnlyTableWithoutJoinIsInfeasible) {
  const sql::BoundQuery q = BindSql("SELECT Payload FROM Restricted");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  EXPECT_EQ(r.status().code(), Status::Code::kNotSupported);
}

TEST_F(OptimizerTest, LocalRelationsAreFreeAndFirst) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM ZipMap, Station "
      "WHERE ZipMap.City = Station.City AND ZipMap.ZipCode = 7");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.accesses[0].kind, AccessSpec::Kind::kLocal);
  EXPECT_EQ(q.relations[r->plan.accesses[0].rel].def->name, "ZipMap");
}

TEST_F(OptimizerTest, AlwaysEmptyRelationIsFree) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Date = 5 AND Date = 6");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.accesses[0].kind, AccessSpec::Kind::kEmpty);
  EXPECT_EQ(r->plan.est_cost, 0);
}

TEST_F(OptimizerTest, CachedRelationIsZeroPrice) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 5 AND "
      "Date <= 10");
  store_->Store(*cat_.FindTable("Weather"),
               q.relations[0].QueryRegion(), {}, 0);
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.accesses[0].kind, AccessSpec::Kind::kCached);
  EXPECT_EQ(r->plan.est_cost, 0);
}

TEST_F(OptimizerTest, WithoutSqrCacheIsIgnored) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 5 AND "
      "Date <= 10");
  store_->Store(*cat_.FindTable("Weather"), q.relations[0].QueryRegion(), {},
               0);
  OptimizerOptions options;
  options.use_sqr = false;
  Result<OptimizeResult> r = MakeOptimizer(options).Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.accesses[0].kind, AccessSpec::Kind::kPlain);
  EXPECT_GT(r->plan.est_cost, 0);
}

TEST_F(OptimizerTest, PartialCoverageReducesPlainCost) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 1 AND "
      "Date <= 30");
  Result<OptimizeResult> cold = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(cold.ok());
  // Cache the first half of the month.
  Box half = q.relations[0].QueryRegion();
  half.dim(2) = Interval(1, 15);
  store_->Store(*cat_.FindTable("Weather"), half, {}, 0);
  Result<OptimizeResult> warm = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->plan.est_cost, cold->plan.est_cost);
  EXPECT_GT(warm->plan.est_cost, 0);
}

TEST_F(OptimizerTest, Theorem3DisconnectedSubsetsUseCartesian) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather, Island WHERE Country = 'US' AND Date >= 1 "
      "AND Date <= 2 AND Island.K >= 1 AND Island.K <= 10");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->plan.accesses.size(), 2u);
  // Cost is the sum of the two independent accesses.
  int64_t sum = 0;
  for (const AccessSpec& a : r->plan.accesses) sum += a.est_transactions;
  EXPECT_EQ(r->plan.est_cost, sum);
}

TEST_F(OptimizerTest, CountersGrowWithRelations) {
  const sql::BoundQuery q1 = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 1 AND "
      "Date <= 2");
  const sql::BoundQuery q3 = BindSql(
      "SELECT Temperature FROM Station, Weather, ZipMap "
      "WHERE ZipMap.City = Station.City AND Station.StationID = "
      "Weather.StationID AND Weather.Country = 'US' AND Date >= 1 AND "
      "Date <= 2");
  Result<OptimizeResult> r1 = MakeOptimizer().Optimize(q1);
  Result<OptimizeResult> r3 = MakeOptimizer().Optimize(q3);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_GT(r3->counters.evaluated_plans, r1->counters.evaluated_plans);
}

TEST_F(OptimizerTest, ExhaustiveCountsMorePlans) {
  const sql::BoundQuery q = BindSql(
      "SELECT Temperature FROM Station, Weather, ZipMap "
      "WHERE ZipMap.City = Station.City AND Station.StationID = "
      "Weather.StationID AND Weather.Country = 'US' AND Date >= 1 AND "
      "Date <= 2");
  OptimizerOptions exhaustive;
  exhaustive.use_search_reduction = false;
  exhaustive.use_sqr = false;
  OptimizerOptions reduced;
  reduced.use_sqr = false;
  Result<OptimizeResult> a = MakeOptimizer(reduced).Optimize(q);
  Result<OptimizeResult> b = MakeOptimizer(exhaustive).Optimize(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->counters.evaluated_plans, a->counters.evaluated_plans);
  // Theorem 1: the reduced search must find a plan at least as cheap.
  EXPECT_LE(a->plan.est_cost, b->plan.est_cost);
}

TEST_F(OptimizerTest, ExhaustiveFindsSameCostAsLeftDeep) {
  // Theorem 1 end-to-end: on several query shapes the two strategies agree
  // on the optimal cost.
  const std::vector<std::string> queries = {
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 1 AND Date <= 9",
      "SELECT Temperature FROM Station, Weather WHERE City = 'C105' AND "
      "Station.Country = 'US' AND Weather.Country = 'US' AND Date >= 1 AND "
      "Date <= 30 AND Station.StationID = Weather.StationID",
      "SELECT Payload FROM Station, Restricted WHERE City = 'C101' AND "
      "Country = 'US' AND Station.StationID = Restricted.StationID",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    const sql::BoundQuery q = BindSql(sql);
    OptimizerOptions reduced;
    reduced.use_sqr = false;
    OptimizerOptions exhaustive;
    exhaustive.use_search_reduction = false;
    exhaustive.use_sqr = false;
    Result<OptimizeResult> a = MakeOptimizer(reduced).Optimize(q);
    Result<OptimizeResult> b = MakeOptimizer(exhaustive).Optimize(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->plan.est_cost, b->plan.est_cost);
  }
}

TEST_F(OptimizerTest, SqrCountsBoundingBoxes) {
  // A partially covered region forces remainder generation.
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 1 AND "
      "Date <= 30");
  Box half = q.relations[0].QueryRegion();
  half.dim(2) = Interval(10, 20);
  store_->Store(*cat_.FindTable("Weather"), half, {}, 0);
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->counters.enumerated_bboxes, 0u);
  EXPECT_GT(r->counters.kept_bboxes, 0u);
  EXPECT_LE(r->counters.kept_bboxes, r->counters.enumerated_bboxes);
}

TEST_F(OptimizerTest, ConsistencyHorizonHidesOldViews) {
  const sql::BoundQuery q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Date >= 5 AND "
      "Date <= 10");
  store_->Store(*cat_.FindTable("Weather"), q.relations[0].QueryRegion(), {},
               /*epoch=*/1);
  OptimizerOptions options;
  options.min_epoch = 5;  // view from epoch 1 is too old
  Result<OptimizeResult> r = MakeOptimizer(options).Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.accesses[0].kind, AccessSpec::Kind::kPlain);
}

TEST_F(OptimizerTest, EmptyQueryRejected) {
  sql::BoundQuery q;
  EXPECT_FALSE(MakeOptimizer().Optimize(q).ok());
}

TEST_F(OptimizerTest, PlanDescribeMentionsAccessKinds) {
  const sql::BoundQuery q = BindSql(
      "SELECT Temperature FROM Station, Weather "
      "WHERE City = 'C100' AND Station.Country = 'US' AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= 30 AND "
      "Station.StationID = Weather.StationID");
  Result<OptimizeResult> r = MakeOptimizer().Optimize(q);
  ASSERT_TRUE(r.ok());
  const std::string desc = obs::RenderPlan(r->plan, q);
  EXPECT_NE(desc.find("Station"), std::string::npos);
  EXPECT_NE(desc.find("bind-join"), std::string::npos);
}

TEST_F(OptimizerTest, AccessKindNames) {
  EXPECT_STREQ(AccessKindName(AccessSpec::Kind::kLocal), "local");
  EXPECT_STREQ(AccessKindName(AccessSpec::Kind::kEmpty), "empty");
  EXPECT_STREQ(AccessKindName(AccessSpec::Kind::kCached), "cached");
  EXPECT_STREQ(AccessKindName(AccessSpec::Kind::kPlain), "call");
  EXPECT_STREQ(AccessKindName(AccessSpec::Kind::kBind), "bind-join");
}

}  // namespace
}  // namespace payless::core
