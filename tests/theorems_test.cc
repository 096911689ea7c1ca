// Property tests for the paper's §4.1 theorems, checked on randomized
// catalogs and queries with REAL measured spend (the billing meter), not
// just estimates:
//   Theorem 1 — restricting the search to left-deep plans never yields a
//               costlier optimum than exhaustive (bushy) enumeration;
//   Theorem 2 — zero-price relations joined first: measured spend of the
//               produced plan equals the optimizer's choice with the
//               zero-price prefix, and adding cached coverage never
//               increases measured spend;
//   Theorem 3 — join-disconnected relation sets cost the sum of their
//               parts (Cartesian products add no market transactions).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/optimizer.h"
#include "exec/execution_engine.h"
#include "exec/reference.h"
#include "federation/endpoint_router.h"
#include "sql/parser.h"

namespace payless {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

/// Random 2-3 table market setup with a join chain and data.
struct Scenario {
  catalog::Catalog cat;
  std::unique_ptr<market::DataMarket> market;
  std::string sql;

  Scenario() = default;
};

std::unique_ptr<Scenario> MakeScenario(uint64_t seed) {
  auto s = std::make_unique<Scenario>();
  Rng rng(seed);
  EXPECT_TRUE(s->cat.RegisterDataset(DatasetDef{"D", 1.0, 10}).ok());

  const int64_t keys = rng.Uniform(5, 30);

  TableDef a;
  a.name = "A";
  a.dataset = "D";
  a.columns = {
      ColumnDef::Free("k", ValueType::kInt64, AttrDomain::Numeric(1, keys)),
      ColumnDef::Free("f", ValueType::kInt64, AttrDomain::Numeric(0, 9))};
  a.cardinality = keys * 2;
  EXPECT_TRUE(s->cat.RegisterTable(a).ok());

  TableDef b;
  b.name = "B";
  b.dataset = "D";
  const bool b_bound = rng.Chance(0.4);
  b.columns = {
      b_bound ? ColumnDef::Bound("k", ValueType::kInt64,
                                 AttrDomain::Numeric(1, keys))
              : ColumnDef::Free("k", ValueType::kInt64,
                                AttrDomain::Numeric(1, keys)),
      ColumnDef::Free("g", ValueType::kInt64, AttrDomain::Numeric(0, 19))};
  b.cardinality = keys * 4;
  EXPECT_TRUE(s->cat.RegisterTable(b).ok());

  s->market = std::make_unique<market::DataMarket>(&s->cat);
  std::vector<Row> a_rows, b_rows;
  for (int64_t k = 1; k <= keys; ++k) {
    for (int64_t i = 0; i < 2; ++i) {
      a_rows.push_back(Row{Value(k), Value(rng.Uniform(0, 9))});
    }
    for (int64_t i = 0; i < 4; ++i) {
      b_rows.push_back(Row{Value(k), Value(rng.Uniform(0, 19))});
    }
  }
  EXPECT_TRUE(s->market->HostTable("A", std::move(a_rows)).ok());
  EXPECT_TRUE(s->market->HostTable("B", std::move(b_rows)).ok());

  const int64_t flo = rng.Uniform(0, 8);
  s->sql = "SELECT * FROM A, B WHERE A.k = B.k AND A.f >= " +
           std::to_string(flo) + " AND A.f <= " +
           std::to_string(rng.Uniform(flo, 9));
  return s;
}

/// Optimizes and EXECUTES the query; returns measured transactions.
int64_t MeasuredSpend(Scenario* s, core::OptimizerOptions options) {
  stats::StatsRegistry stats(s->cat);
  semstore::SemanticStore store(s->cat);
  federation::EndpointRouter router(s->market.get());
  router.AddListener([&](const market::RestCall& call,
                         const market::CallResult& result) {
    const TableDef* def = s->cat.FindTable(call.table);
    store.Store(*def, market::CallRegion(*def, call), result.rows, 0);
    stats.Feedback(call.table, market::CallRegion(*def, call),
                   result.num_records);
  });

  Result<sql::SelectStmt> stmt = sql::Parse(s->sql);
  EXPECT_TRUE(stmt.ok());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, s->cat, {});
  EXPECT_TRUE(bound.ok());

  const core::Optimizer optimizer(&s->cat, &stats, &store, options);
  Result<core::OptimizeResult> plan = optimizer.Optimize(*bound);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for " << s->sql;

  storage::Database db;
  exec::ExecutionEngine engine(&s->cat, &db, &router, &store, &stats);
  exec::ExecConfig config;
  config.use_sqr = options.use_sqr;
  Result<storage::Table> result =
      engine.Execute(*bound, plan->plan, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  // Correctness side-check against the oracle.
  Result<storage::Table> want =
      exec::ReferenceEvaluate(s->cat, *s->market, db, s->sql);
  EXPECT_TRUE(want.ok());
  EXPECT_TRUE(exec::SameResult(*result, *want)) << s->sql;

  return router.TotalMeteredTransactions();
}

class TheoremProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremProperty, Theorem1LeftDeepNeverCostlierThanBushy) {
  core::OptimizerOptions left_deep;
  left_deep.use_sqr = false;
  core::OptimizerOptions bushy;
  bushy.use_sqr = false;
  bushy.use_search_reduction = false;
  auto s1 = MakeScenario(GetParam());
  auto s2 = MakeScenario(GetParam());
  const int64_t reduced = MeasuredSpend(s1.get(), left_deep);
  const int64_t exhaustive = MeasuredSpend(s2.get(), bushy);
  EXPECT_LE(reduced, exhaustive) << s1->sql;
}

TEST_P(TheoremProperty, Theorem2CachedCoverageNeverIncreasesSpend) {
  auto cold = MakeScenario(GetParam());
  const int64_t cold_spend = MeasuredSpend(cold.get(), {});

  // Same scenario, but a prior identical query warmed the store: the second
  // run must cost no more (in fact zero, everything needed is cached).
  auto warm = MakeScenario(GetParam());
  stats::StatsRegistry stats(warm->cat);
  semstore::SemanticStore store(warm->cat);
  federation::EndpointRouter router(warm->market.get());
  router.AddListener([&](const market::RestCall& call,
                         const market::CallResult& result) {
    const TableDef* def = warm->cat.FindTable(call.table);
    store.Store(*def, market::CallRegion(*def, call), result.rows, 0);
    stats.Feedback(call.table, market::CallRegion(*def, call),
                   result.num_records);
  });
  Result<sql::SelectStmt> stmt = sql::Parse(warm->sql);
  ASSERT_TRUE(stmt.ok());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, warm->cat, {});
  ASSERT_TRUE(bound.ok());
  const core::Optimizer optimizer(&warm->cat, &stats, &store, {});
  storage::Database db;
  exec::ExecutionEngine engine(&warm->cat, &db, &router, &store, &stats);
  for (int run = 0; run < 2; ++run) {
    Result<core::OptimizeResult> plan = optimizer.Optimize(*bound);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.Execute(*bound, plan->plan, exec::ExecConfig{}).ok());
  }
  // Two runs together cost no more than one cold run... and exactly equal:
  // the second run is free.
  EXPECT_EQ(router.TotalMeteredTransactions(), cold_spend) << warm->sql;
}

INSTANTIATE_TEST_SUITE_P(Random, TheoremProperty,
                         ::testing::Range<uint64_t>(0, 12));

TEST(Theorem3Test, DisconnectedQueriesCostTheSumOfParts) {
  // Two unjoinable market tables: the query's spend equals the sum of the
  // two independent single-table queries' spends.
  catalog::Catalog cat;
  ASSERT_TRUE(cat.RegisterDataset(DatasetDef{"D", 1.0, 10}).ok());
  for (const char* name : {"X", "Y"}) {
    TableDef def;
    def.name = name;
    def.dataset = "D";
    def.columns = {ColumnDef::Free("k", ValueType::kInt64,
                                   AttrDomain::Numeric(1, 40))};
    def.cardinality = 40;
    ASSERT_TRUE(cat.RegisterTable(def).ok());
  }
  market::DataMarket market(&cat);
  std::vector<Row> x_rows, y_rows;
  for (int64_t k = 1; k <= 40; ++k) {
    x_rows.push_back(Row{Value(k)});
    y_rows.push_back(Row{Value(k)});
  }
  ASSERT_TRUE(market.HostTable("X", std::move(x_rows)).ok());
  ASSERT_TRUE(market.HostTable("Y", std::move(y_rows)).ok());

  const auto spend = [&cat, &market](const std::string& sql) {
    stats::StatsRegistry stats(cat);
    semstore::SemanticStore store(cat);
    federation::EndpointRouter router(&market);
    Result<sql::SelectStmt> stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok());
    Result<sql::BoundQuery> bound = sql::Bind(*stmt, cat, {});
    EXPECT_TRUE(bound.ok());
    const core::Optimizer optimizer(&cat, &stats, &store, {});
    Result<core::OptimizeResult> plan = optimizer.Optimize(*bound);
    EXPECT_TRUE(plan.ok());
    storage::Database db;
    exec::ExecutionEngine engine(&cat, &db, &router, &store, &stats);
    EXPECT_TRUE(engine.Execute(*bound, plan->plan, exec::ExecConfig{}).ok());
    return router.TotalMeteredTransactions();
  };

  const int64_t x_only = spend("SELECT * FROM X WHERE X.k >= 1 AND X.k <= 25");
  const int64_t y_only = spend("SELECT * FROM Y WHERE Y.k >= 5 AND Y.k <= 18");
  const int64_t both = spend(
      "SELECT * FROM X, Y WHERE X.k >= 1 AND X.k <= 25 AND Y.k >= 5 AND "
      "Y.k <= 18");
  EXPECT_EQ(both, x_only + y_only);
}

}  // namespace
}  // namespace payless
