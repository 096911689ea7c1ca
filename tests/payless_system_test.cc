// The PayLess facade: end-to-end behaviour of the full system object —
// learning across queries, consistency levels, reports, error paths.
#include "exec/payless.h"

#include <gtest/gtest.h>

#include "exec/download_all.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class PayLessSystemTest : public ::testing::Test {
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

    TableDef zipmap;
    zipmap.name = "ZipMap";
    zipmap.is_local = true;
    zipmap.columns = {
        ColumnDef::Free("ZipCode", ValueType::kInt64,
                        AttrDomain::Numeric(10000, 10199)),
        ColumnDef::Output("City", ValueType::kString)};
    zipmap.cardinality = 200;
    ASSERT_TRUE(cat_.RegisterTable(zipmap).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t rank = 1; rank <= 2000; ++rank) {
      rows.push_back(Row{Value(10000 + rank % 200), Value(rank),
                         Value(static_cast<double>(rank) / 10)});
    }
    ASSERT_TRUE(market_->HostTable("Pollution", std::move(rows)).ok());

    zip_rows_.clear();
    for (int64_t zip = 10000; zip < 10200; ++zip) {
      zip_rows_.push_back(Row{Value(zip), Value("city" + std::to_string(zip % 7))});
    }
  }

  std::unique_ptr<PayLess> NewClient(PayLessConfig config = {}) {
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    EXPECT_TRUE(client->LoadLocalTable("ZipMap", zip_rows_).ok());
    return client;
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> zip_rows_;
};

TEST_F(PayLessSystemTest, BasicQueryReturnsRowsAndBills) {
  auto client = NewClient();
  Result<QueryReport> report = client->QueryWithReport(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 250");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result.num_rows(), 250u);
  EXPECT_EQ(report->transactions_spent, 3);  // ceil(250/100)
  EXPECT_EQ(client->meter().total_transactions(), 3);
}

TEST_F(PayLessSystemTest, RepeatedQueryIsFree) {
  auto client = NewClient();
  const std::string sql =
      "SELECT * FROM Pollution WHERE Rank >= 100 AND Rank <= 300";
  ASSERT_TRUE(client->Query(sql).ok());
  const int64_t spent = client->meter().total_transactions();
  Result<QueryReport> second = client->QueryWithReport(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->transactions_spent, 0);
  EXPECT_EQ(second->result.num_rows(), 201u);
  EXPECT_EQ(client->meter().total_transactions(), spent);
}

TEST_F(PayLessSystemTest, SubsetQueryIsFreeSupersetPaysRemainder) {
  auto client = NewClient();
  ASSERT_TRUE(client->Query(
      "SELECT * FROM Pollution WHERE Rank >= 100 AND Rank <= 500").ok());
  const int64_t spent = client->meter().total_transactions();
  // Subset: free.
  Result<QueryReport> subset = client->QueryWithReport(
      "SELECT * FROM Pollution WHERE Rank >= 200 AND Rank <= 300");
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(subset->transactions_spent, 0);
  // Superset: pays only for [501, 600].
  Result<QueryReport> superset = client->QueryWithReport(
      "SELECT * FROM Pollution WHERE Rank >= 100 AND Rank <= 600");
  ASSERT_TRUE(superset.ok());
  EXPECT_EQ(superset->result.num_rows(), 501u);
  EXPECT_LE(superset->transactions_spent, 1);
  EXPECT_EQ(client->meter().total_transactions(),
            spent + superset->transactions_spent);
}

// The seller evaluates and bills a call that finds no row: its dataset is
// part of the query's spend at 0 transactions, and of the tenant's.
TEST_F(PayLessSystemTest, EmptyCallNamesItsDatasetAtZero) {
  auto client = NewClient();
  Result<QueryReport> report = client->QueryWithReport(
      "SELECT * FROM Pollution WHERE ZipCode = 10005 AND Rank >= 1 AND "
      "Rank <= 3");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->result.num_rows(), 0u);
  EXPECT_EQ(report->exec.calls, 1);
  EXPECT_EQ(report->transactions_spent, 0);
  EXPECT_EQ(report->transactions_by_dataset,
            (std::map<std::string, int64_t>{{"EHR", 0}}));
  const std::string ledger = client->observability()->ledger.ToJson();
  EXPECT_NE(ledger.find("\"datasets\":{\"EHR\":0}"), std::string::npos)
      << ledger;
}

TEST_F(PayLessSystemTest, StatisticsLearnFromFeedback) {
  auto client = NewClient();
  ASSERT_TRUE(client->Query(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 1000").ok());
  // The stored feedback makes the estimate for a sub-range exact.
  const Box region({Interval(10000, 10199), Interval(1, 1000)});
  EXPECT_NEAR(client->stats().EstimateRows("Pollution", region), 1000.0, 1.0);
}

TEST_F(PayLessSystemTest, ParameterizedQueries) {
  auto client = NewClient();
  Result<storage::Table> result = client->Query(
      "SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= ? AND Rank <= ?",
      {Value(int64_t{50}), Value(int64_t{149})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows()[0][0], Value(int64_t{100}));
}

TEST_F(PayLessSystemTest, ParseAndBindErrorsPropagate) {
  auto client = NewClient();
  EXPECT_EQ(client->Query("SELEC nonsense").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(client->Query("SELECT * FROM Missing").status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(client
                ->Query("SELECT * FROM Pollution WHERE Rank >= ?",
                        {})  // missing parameter
                .status()
                .code(),
            Status::Code::kInvalidArgument);
}

TEST_F(PayLessSystemTest, LoadLocalTableValidation) {
  auto client = NewClient();
  EXPECT_EQ(client->LoadLocalTable("Missing", {}).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(client->LoadLocalTable("Pollution", {}).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(PayLessSystemTest, LocalJoinCostsNothingExtra) {
  auto client = NewClient();
  Result<QueryReport> report = client->QueryWithReport(
      "SELECT City, COUNT(*) FROM Pollution, ZipMap "
      "WHERE Pollution.ZipCode = ZipMap.ZipCode AND Rank >= 1 AND "
      "Rank <= 100 GROUP BY City");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->transactions_spent, 1);
  EXPECT_EQ(report->result.num_rows(), 7u);  // 7 cities
}

TEST_F(PayLessSystemTest, FullConsistencyDisablesReuse) {
  PayLessConfig config;
  config.consistency = ConsistencyLevel::kFull;
  auto client = NewClient(config);
  const std::string sql =
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 100";
  ASSERT_TRUE(client->Query(sql).ok());
  const int64_t first = client->meter().total_transactions();
  ASSERT_TRUE(client->Query(sql).ok());
  EXPECT_EQ(client->meter().total_transactions(), 2 * first);
}

TEST_F(PayLessSystemTest, XWeekConsistencyExpiresOldViews) {
  PayLessConfig config;
  config.consistency = ConsistencyLevel::kXWeek;
  config.consistency_weeks = 2;
  auto client = NewClient(config);
  const std::string sql =
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 100";
  client->SetCurrentWeek(0);
  ASSERT_TRUE(client->Query(sql).ok());
  const int64_t first = client->meter().total_transactions();
  // Within the horizon: free.
  client->SetCurrentWeek(2);
  ASSERT_TRUE(client->Query(sql).ok());
  EXPECT_EQ(client->meter().total_transactions(), first);
  // Beyond the horizon: re-bought.
  client->SetCurrentWeek(5);
  ASSERT_TRUE(client->Query(sql).ok());
  EXPECT_EQ(client->meter().total_transactions(), 2 * first);
}

TEST_F(PayLessSystemTest, WeakConsistencySeesAppendOnlyGrowth) {
  auto client = NewClient();
  const std::string sql =
      "SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 1 AND Rank <= 2500";
  Result<storage::Table> before = client->Query(sql);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows()[0][0], Value(int64_t{2000}));
  // A new release appends rows with fresh ranks; the weak-consistency
  // client's cached coverage hides them (the §4.3 trade-off).
  ASSERT_TRUE(market_
                  ->AppendRows("Pollution", {{Value(int64_t{10001}),
                                              Value(int64_t{2400}),
                                              Value(1.0)}})
                  .ok());
  Result<storage::Table> after = client->Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows()[0][0], Value(int64_t{2000}));  // stale, free
  // A fresh full-consistency client sees the new row.
  PayLessConfig full;
  full.consistency = ConsistencyLevel::kFull;
  auto fresh = NewClient(full);
  Result<storage::Table> fresh_result = fresh->Query(sql);
  ASSERT_TRUE(fresh_result.ok());
  EXPECT_EQ(fresh_result->rows()[0][0], Value(int64_t{2001}));
}

TEST_F(PayLessSystemTest, ReportContainsPlanAndCounters) {
  auto client = NewClient();
  Result<QueryReport> report = client->QueryWithReport(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 100");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->plan.accesses.size(), 1u);
  EXPECT_GT(report->counters.evaluated_plans, 0u);
  EXPECT_EQ(report->exec.calls, 1);
  EXPECT_EQ(report->exec.transactions, report->transactions_spent);
}

TEST_F(PayLessSystemTest, DownloadAllClientDownloadsOnce) {
  DownloadAllClient client(&cat_, market_.get());
  ASSERT_TRUE(client.LoadLocalTable("ZipMap", zip_rows_).ok());
  Result<storage::Table> r1 = client.Query(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 10");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->num_rows(), 10u);
  EXPECT_EQ(client.meter().total_transactions(), 20);  // 2000 rows / 100
  Result<storage::Table> r2 = client.Query(
      "SELECT * FROM Pollution WHERE Rank >= 11 AND Rank <= 30");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(client.meter().total_transactions(), 20);  // no further spend
}

TEST_F(PayLessSystemTest, ExplainPlansWithoutSpending) {
  auto client = NewClient();
  Result<QueryReport> plan = client->Explain(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 250");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->plan.est_cost, 3);  // would cost ceil(250/100)
  EXPECT_EQ(plan->transactions_spent, 0);
  EXPECT_EQ(client->meter().total_transactions(), 0);  // nothing billed
  EXPECT_EQ(client->store().TotalViews(), 0u);         // nothing cached
  // Estimated cost matches what execution then actually bills.
  Result<QueryReport> run = client->QueryWithReport(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 250");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->transactions_spent, plan->plan.est_cost);
}

TEST_F(PayLessSystemTest, ExplainPropagatesErrors) {
  auto client = NewClient();
  EXPECT_FALSE(client->Explain("SELECT nothing FROM nowhere").ok());
}

TEST_F(PayLessSystemTest, SemanticStoreGrowsWithQueries) {
  auto client = NewClient();
  EXPECT_EQ(client->store().TotalViews(), 0u);
  ASSERT_TRUE(client->Query(
      "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 50").ok());
  EXPECT_EQ(client->store().TotalViews(), 1u);
  EXPECT_EQ(client->store().TotalStoredRows(), 50u);
}

}  // namespace
}  // namespace payless::exec
