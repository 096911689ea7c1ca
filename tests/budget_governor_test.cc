// Budget governance: unit semantics of the governor's three knobs, and the
// end-to-end admission contract through PayLess — a tenant at its hard cap
// gets kBudgetExceeded BEFORE any market call (zero transactions billed), a
// soft threshold only warns, and two tenants sharing one observability
// context are limited independently.
#include "obs/budget.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/payless.h"
#include "obs/observability.h"

namespace payless::obs {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;

TEST(BudgetGovernorTest, TenantsWithoutBudgetAreAlwaysAdmitted) {
  CostLedger ledger;
  BudgetGovernor governor(&ledger);
  ledger.Record("acme", "WHW", 1'000'000, 1e6);
  const Admission admission = governor.Admit("acme", 1'000'000);
  EXPECT_TRUE(admission.status.ok());
  EXPECT_FALSE(admission.soft_warning);
}

TEST(BudgetGovernorTest, HardCapRejectsOnLedgerPlusEstimate) {
  CostLedger ledger;
  BudgetGovernor governor(&ledger);
  TenantBudget budget;
  budget.hard_cap_transactions = 10;
  governor.SetBudget("acme", budget);

  ledger.Record("acme", "WHW", 8, 8.0);
  EXPECT_TRUE(governor.Admit("acme", 2).status.ok());  // 8 + 2 == cap: admit
  const Admission over = governor.Admit("acme", 3);    // 8 + 3 > cap: reject
  EXPECT_EQ(over.status.code(), Status::Code::kBudgetExceeded);

  ledger.Record("acme", "WHW", 2, 2.0);  // now exactly at the cap
  EXPECT_TRUE(governor.Admit("acme", 0).status.ok());  // free query still ok
  EXPECT_EQ(governor.Admit("acme", 1).status.code(),
            Status::Code::kBudgetExceeded);
  EXPECT_EQ(governor.rejections("acme"), 2);
  // Another tenant sharing the governor is untouched.
  EXPECT_TRUE(governor.Admit("initech", 100).status.ok());
}

TEST(BudgetGovernorTest, SoftThresholdWarnsWithoutRejecting) {
  CostLedger ledger;
  BudgetGovernor governor(&ledger);
  TenantBudget budget;
  budget.soft_warn_transactions = 5;
  governor.SetBudget("acme", budget);

  ledger.Record("acme", "WHW", 4, 4.0);
  const Admission below = governor.Admit("acme", 1);  // 4 + 1 == threshold
  EXPECT_TRUE(below.status.ok());
  EXPECT_FALSE(below.soft_warning);

  const Admission above = governor.Admit("acme", 2);  // 4 + 2 > threshold
  EXPECT_TRUE(above.status.ok());
  EXPECT_TRUE(above.soft_warning);
  EXPECT_EQ(governor.warnings("acme"), 1);

  // The early (estimate-free) gate must not double-count warnings.
  const Admission gate1 =
      governor.Admit("acme", 0, /*now_micros=*/-1,
                     /*note_soft_warning=*/false);
  EXPECT_TRUE(gate1.status.ok());
  EXPECT_EQ(governor.warnings("acme"), 1);
}

TEST(BudgetGovernorTest, SlidingWindowCapsRateNotLifetime) {
  CostLedger ledger;
  BudgetGovernor governor(&ledger);
  TenantBudget budget;
  budget.window_cap_transactions = 10;
  budget.window_micros = 1'000;
  governor.SetBudget("acme", budget);

  governor.RecordSpend("acme", 6, /*now_micros=*/100);
  governor.RecordSpend("acme", 4, /*now_micros=*/200);
  EXPECT_EQ(governor.WindowSpend("acme", 300), 10);
  // Window is full: even a 1-transaction query must wait.
  EXPECT_EQ(governor.Admit("acme", 1, /*now_micros=*/300).status.code(),
            Status::Code::kBudgetExceeded);
  // The first spend ages out once it is a full window old (at 100 + 1000);
  // afterwards there is room again.
  EXPECT_EQ(governor.WindowSpend("acme", 1'100), 4);
  EXPECT_TRUE(governor.Admit("acme", 6, /*now_micros=*/1'100).status.ok());
  // Lifetime spend was never the issue — no hard cap is configured.
  ledger.Record("acme", "WHW", 1'000, 1e3);
  EXPECT_TRUE(governor.Admit("acme", 1, /*now_micros=*/2'500).status.ok());
}

class BudgetQueryTest : public ::testing::Test {
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
                         AttrDomain::Numeric(1, kStations)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(1, kDates)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = kStations * kDates;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    TableDef citymap;
    citymap.name = "CityMap";
    citymap.is_local = true;
    citymap.columns = {
        ColumnDef::Free("CityId", ValueType::kInt64,
                        AttrDomain::Numeric(1, kStations)),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, kStations))};
    citymap.cardinality = kStations;
    ASSERT_TRUE(cat_.RegisterTable(citymap).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t s = 1; s <= kStations; ++s) {
      for (int64_t d = 1; d <= kDates; ++d) {
        rows.push_back(Row{Value("US"), Value(s), Value(d),
                           Value(static_cast<double>(s * 100 + d))});
      }
    }
    ASSERT_TRUE(market_->HostTable("Weather", std::move(rows)).ok());
    for (int64_t i = 1; i <= kStations; ++i) {
      city_rows_.push_back(Row{Value(i), Value(i)});
    }
  }

  std::unique_ptr<PayLess> NewTenant(const std::string& tenant,
                                     Observability* shared) {
    PayLessConfig config;
    config.tenant = tenant;
    config.observability = shared;
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    EXPECT_TRUE(client->LoadLocalTable("CityMap", city_rows_).ok());
    return client;
  }

  static constexpr int64_t kStations = 16;
  static constexpr int64_t kDates = 4;
  static constexpr const char* kBindSql =
      "SELECT Temperature FROM CityMap, Weather "
      "WHERE CityId >= ? AND CityId <= ? AND "
      "CityMap.StationID = Weather.StationID AND "
      "Weather.Country = 'US' AND Date >= 1 AND Date <= 4";

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::vector<Row> city_rows_;
};

// The acceptance criterion: a tenant at its hard cap gets kBudgetExceeded
// and the market bills ZERO transactions for the rejected query.
TEST_F(BudgetQueryTest, HardCapRejectsBeforeAnyMarketCall) {
  Observability shared;
  TenantBudget budget;
  budget.hard_cap_transactions = 1;  // the first real query blows this
  shared.governor.SetBudget("capped", budget);

  auto client = NewTenant("capped", &shared);
  // Gate 2 rejects: the plan's estimated cost already exceeds the cap, so
  // not a single market call goes out.
  const auto result = client->Query(kBindSql, {Value(int64_t{1}),
                                               Value(int64_t{8})});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kBudgetExceeded);
  EXPECT_EQ(client->meter().total_transactions(), 0);
  EXPECT_EQ(client->meter().total_calls(), 0);
  EXPECT_EQ(shared.ledger.TenantTransactions("capped"), 0);
  EXPECT_EQ(shared.governor.rejections("capped"), 1);
}

TEST_F(BudgetQueryTest, ExhaustedTenantFailsAtGateOne) {
  Observability shared;
  TenantBudget budget;
  budget.hard_cap_transactions = 8;
  shared.governor.SetBudget("capped", budget);

  auto client = NewTenant("capped", &shared);
  const auto first = client->QueryWithReport(kBindSql, {Value(int64_t{1}),
                                                        Value(int64_t{2})});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok());
  EXPECT_GT(first->transactions_spent, 0);
  ASSERT_TRUE(shared.ledger.TenantTransactions("capped") <= 8)
      << "fixture assumption broken: first query should fit the cap";

  // Burn the rest of the budget, then expect rejection with no new spend.
  while (shared.ledger.TenantTransactions("capped") < 8) {
    shared.ledger.Record("capped", "WHW", 1, 1.0);
  }
  const int64_t billed_before = client->meter().total_transactions();
  const auto rejected = client->Query(kBindSql, {Value(int64_t{3}),
                                                 Value(int64_t{4})});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kBudgetExceeded);
  EXPECT_EQ(client->meter().total_transactions(), billed_before);
}

TEST_F(BudgetQueryTest, SoftThresholdOnlyWarns) {
  Observability shared;
  TenantBudget budget;
  budget.soft_warn_transactions = 1;
  shared.governor.SetBudget("chatty", budget);

  auto client = NewTenant("chatty", &shared);
  const auto report = client->QueryWithReport(kBindSql, {Value(int64_t{1}),
                                                         Value(int64_t{8})});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok());
  EXPECT_TRUE(report->budget_warning);
  EXPECT_GT(report->transactions_spent, 0);  // the query RAN
  EXPECT_EQ(shared.governor.warnings("chatty"), 1);
  EXPECT_EQ(shared.governor.rejections("chatty"), 0);
}

// Two tenants, one shared context: the capped tenant is rejected, the
// unbudgeted tenant keeps querying, and the ledger keeps their spend apart
// while its total still matches the sum of both meters.
TEST_F(BudgetQueryTest, TenantsShareContextButNotBudgets) {
  Observability shared;
  TenantBudget budget;
  budget.hard_cap_transactions = 1;
  shared.governor.SetBudget("capped", budget);

  auto capped = NewTenant("capped", &shared);
  auto open = NewTenant("open", &shared);

  const auto rejected = capped->Query(kBindSql, {Value(int64_t{1}),
                                                 Value(int64_t{8})});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kBudgetExceeded);

  const auto served = open->QueryWithReport(kBindSql, {Value(int64_t{1}),
                                                       Value(int64_t{8})});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->ok());

  EXPECT_EQ(shared.ledger.TenantTransactions("capped"), 0);
  EXPECT_EQ(shared.ledger.TenantTransactions("open"),
            served->transactions_spent);
  EXPECT_EQ(shared.ledger.total_transactions(),
            capped->meter().total_transactions() +
                open->meter().total_transactions());
}

}  // namespace
}  // namespace payless::obs
