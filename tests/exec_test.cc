// Execution engine + local evaluation: every access kind fetches exactly
// the right tuples, residuals apply, aggregates compute, and all of it is
// cross-checked against the reference oracle.
#include "exec/execution_engine.h"

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "exec/local_eval.h"
#include "exec/reference.h"
#include "federation/endpoint_router.h"
#include "sql/parser.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"D", 1.0, 10}).ok());

    TableDef users;
    users.name = "Users";
    users.dataset = "D";
    users.columns = {
        ColumnDef::Free("UserID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 20)),
        ColumnDef::Free("Segment", ValueType::kString,
                        AttrDomain::Categorical({"gold", "silver"})),
        ColumnDef::Output("Spend", ValueType::kDouble)};
    users.cardinality = 20;
    ASSERT_TRUE(cat_.RegisterTable(users).ok());

    TableDef events;
    events.name = "Events";
    events.dataset = "D";
    events.columns = {
        ColumnDef::Bound("UserID", ValueType::kInt64,
                         AttrDomain::Numeric(1, 20)),
        ColumnDef::Free("Day", ValueType::kInt64, AttrDomain::Numeric(1, 10)),
        ColumnDef::Output("Clicks", ValueType::kDouble)};
    events.cardinality = 200;
    ASSERT_TRUE(cat_.RegisterTable(events).ok());

    TableDef names;
    names.name = "Names";
    names.is_local = true;
    names.columns = {
        ColumnDef::Free("UserID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 20)),
        ColumnDef::Output("Name", ValueType::kString)};
    names.cardinality = 20;
    ASSERT_TRUE(cat_.RegisterTable(names).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> user_rows, event_rows, name_rows;
    for (int64_t u = 1; u <= 20; ++u) {
      user_rows.push_back(Row{Value(u), Value(u % 3 == 0 ? "gold" : "silver"),
                              Value(static_cast<double>(u) * 10)});
      name_rows.push_back(Row{Value(u), Value("user" + std::to_string(u))});
      for (int64_t day = 1; day <= 10; ++day) {
        event_rows.push_back(
            Row{Value(u), Value(day), Value(static_cast<double>(u + day))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Users", std::move(user_rows)).ok());
    ASSERT_TRUE(market_->HostTable("Events", std::move(event_rows)).ok());
    ASSERT_TRUE(db_.CreateTable(*cat_.FindTable("Names")).ok());
    ASSERT_TRUE(db_.InsertRows("Names", name_rows).ok());

    router_ = std::make_unique<federation::EndpointRouter>(market_.get());
    store_ = std::make_unique<semstore::SemanticStore>(cat_);
    stats_ = std::make_unique<stats::StatsRegistry>(cat_);
    router_->AddListener([this](const market::RestCall& call,
                                const market::CallResult& result) {
      const TableDef* def = cat_.FindTable(call.table);
      store_->Store(*def, market::CallRegion(*def, call), result.rows, 0);
      stats_->Feedback(call.table, market::CallRegion(*def, call),
                      result.num_records);
    });
  }

  sql::BoundQuery BindSql(const std::string& sql) {
    Result<sql::SelectStmt> stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Result<sql::BoundQuery> bound = sql::Bind(*stmt, cat_, {});
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(*bound);
  }

  Result<storage::Table> Run(const std::string& sql, ExecStats* stats = nullptr) {
    const sql::BoundQuery q = BindSql(sql);
    const core::Optimizer optimizer(&cat_, stats_.get(), store_.get(), {});
    Result<core::OptimizeResult> plan = optimizer.Optimize(q);
    if (!plan.ok()) return plan.status();
    ExecutionEngine engine(&cat_, &db_, router_.get(), store_.get(),
                           stats_.get());
    return engine.Execute(q, plan->plan, ExecConfig{}, stats);
  }

  void ExpectMatchesOracle(const std::string& sql) {
    Result<storage::Table> got = Run(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<storage::Table> want =
        ReferenceEvaluate(cat_, *market_, db_, sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(SameResult(*got, *want))
        << "got " << got->num_rows() << " rows, want " << want->num_rows();
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::unique_ptr<federation::EndpointRouter> router_;
  storage::Database db_;
  std::unique_ptr<semstore::SemanticStore> store_;
  std::unique_ptr<stats::StatsRegistry> stats_;
};

TEST_F(ExecTest, PlainAccessSelectStar) {
  ExpectMatchesOracle("SELECT * FROM Users WHERE Segment = 'gold'");
}

TEST_F(ExecTest, ResidualOnOutputAttribute) {
  ExpectMatchesOracle("SELECT * FROM Users WHERE Spend >= 100.0");
}

TEST_F(ExecTest, LocalJoinWithMarketTable) {
  ExpectMatchesOracle(
      "SELECT Name, Spend FROM Names, Users "
      "WHERE Names.UserID = Users.UserID AND Segment = 'gold'");
}

TEST_F(ExecTest, BindJoinIntoBoundTable) {
  ExecStats stats;
  Result<storage::Table> got = Run(
      "SELECT Clicks FROM Users, Events "
      "WHERE Segment = 'gold' AND Users.UserID = Events.UserID AND "
      "Day >= 2 AND Day <= 4",
      &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // 6 gold users (3,6,9,12,15,18) x 3 days.
  EXPECT_EQ(got->num_rows(), 18u);
  EXPECT_GT(stats.calls, 0);
}

TEST_F(ExecTest, BindJoinMatchesOracle) {
  ExpectMatchesOracle(
      "SELECT Clicks FROM Users, Events "
      "WHERE Segment = 'gold' AND Users.UserID = Events.UserID AND "
      "Day >= 2 AND Day <= 4");
}

TEST_F(ExecTest, SecondRunServedFromCache) {
  const std::string sql = "SELECT * FROM Users WHERE Segment = 'silver'";
  ASSERT_TRUE(Run(sql).ok());
  const int64_t after_first = router_->TotalMeteredTransactions();
  ExecStats stats;
  Result<storage::Table> again = Run(sql, &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(router_->TotalMeteredTransactions(), after_first);
  EXPECT_EQ(stats.calls, 0);
  EXPECT_GT(stats.rows_from_cache, 0);
  ExpectMatchesOracle(sql);
}

TEST_F(ExecTest, OverlappingQueryBuysOnlyRemainder) {
  ASSERT_TRUE(
      Run("SELECT * FROM Events, Users WHERE Users.UserID = Events.UserID "
          "AND Users.UserID >= 5 AND Users.UserID <= 8 AND Day >= 1 AND "
          "Day <= 5")
          .ok());
  const int64_t after_first = router_->TotalMeteredTransactions();
  // Extends the day range: only days 6..7 of those users are new.
  ExecStats stats;
  ASSERT_TRUE(
      Run("SELECT * FROM Events, Users WHERE Users.UserID = Events.UserID "
          "AND Users.UserID >= 5 AND Users.UserID <= 8 AND Day >= 1 AND "
          "Day <= 7",
          &stats)
          .ok());
  const int64_t delta = router_->TotalMeteredTransactions() - after_first;
  EXPECT_GT(stats.rows_from_cache, 0);
  EXPECT_LE(delta, 2);  // far less than re-buying the whole range
  ExpectMatchesOracle(
      "SELECT * FROM Events, Users WHERE Users.UserID = Events.UserID "
      "AND Users.UserID >= 5 AND Users.UserID <= 8 AND Day >= 1 AND "
      "Day <= 7");
}

TEST_F(ExecTest, GroupByAggregate) {
  ExpectMatchesOracle(
      "SELECT Segment, COUNT(*), AVG(Spend) FROM Users GROUP BY Segment");
}

TEST_F(ExecTest, GlobalAggregateOverEmptySelection) {
  Result<storage::Table> got =
      Run("SELECT COUNT(*) FROM Users WHERE Segment = 'gold' AND "
          "Segment = 'silver'");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->num_rows(), 1u);
  EXPECT_EQ(got->rows()[0][0], Value(int64_t{0}));
}

TEST_F(ExecTest, EmptyRelationShortCircuits) {
  ExecStats stats;
  Result<storage::Table> got = Run(
      "SELECT * FROM Users WHERE UserID = 3 AND UserID = 4", &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_rows(), 0u);
  EXPECT_EQ(stats.calls, 0);
}

TEST_F(ExecTest, SelectListProjectionAndAliases) {
  Result<storage::Table> got =
      Run("SELECT Spend AS money, UserID FROM Users WHERE UserID = 7");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->num_rows(), 1u);
  EXPECT_EQ(got->schema().column(0).name, "money");
  EXPECT_EQ(got->rows()[0][0], Value(70.0));
  EXPECT_EQ(got->rows()[0][1], Value(int64_t{7}));
}

TEST_F(ExecTest, ThreeWayJoinMatchesOracle) {
  ExpectMatchesOracle(
      "SELECT Name, Clicks FROM Names, Users, Events "
      "WHERE Names.UserID = Users.UserID AND Users.UserID = Events.UserID "
      "AND Segment = 'gold' AND Day >= 9 AND Day <= 10");
}

TEST_F(ExecTest, PlanMustCoverAllRelations) {
  const sql::BoundQuery q = BindSql("SELECT * FROM Users");
  ExecutionEngine engine(&cat_, &db_, router_.get(), store_.get(),
                         stats_.get());
  core::Plan empty_plan;
  EXPECT_FALSE(engine.Execute(q, empty_plan, ExecConfig{}).ok());
}

TEST_F(ExecTest, LocalEvalRejectsArityMismatch) {
  const sql::BoundQuery q = BindSql("SELECT * FROM Users");
  EXPECT_FALSE(EvaluateLocally(q, {}).ok());
}

TEST_F(ExecTest, WithoutSqrEveryRunPaysAgain) {
  const sql::BoundQuery q =
      BindSql("SELECT * FROM Users WHERE Segment = 'gold'");
  core::OptimizerOptions opt;
  opt.use_sqr = false;
  const core::Optimizer optimizer(&cat_, stats_.get(), store_.get(), opt);
  Result<core::OptimizeResult> plan = optimizer.Optimize(q);
  ASSERT_TRUE(plan.ok());
  ExecutionEngine engine(&cat_, &db_, router_.get(), store_.get(),
                         stats_.get());
  ExecConfig config;
  config.use_sqr = false;
  ASSERT_TRUE(engine.Execute(q, plan->plan, config).ok());
  const int64_t first = router_->TotalMeteredTransactions();
  ASSERT_TRUE(engine.Execute(q, plan->plan, config).ok());
  EXPECT_EQ(router_->TotalMeteredTransactions(), 2 * first);
}

}  // namespace
}  // namespace payless::exec
