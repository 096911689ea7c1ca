// Cost attribution ledger: unit semantics plus THE invariant of the
// subsystem — for a connector wired to one ledger, the ledger total equals
// the billing meter total under serial execution, under 8-thread
// concurrent execution, and under a 20%-fault-rate storm where lost
// responses are billed to nobody's benefit.
#include "obs/cost_ledger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"
#include "market/fault_injector.h"

namespace payless::obs {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;

TEST(CostLedgerTest, RecordsAndAggregates) {
  CostLedger ledger;
  ledger.Record("acme", "WHW", 3, 3.0);
  ledger.Record("acme", "GEO", 2, 4.0);
  ledger.Record("acme", "WHW", 5, 5.0);
  ledger.Record("initech", "WHW", 1, 1.0);

  EXPECT_EQ(ledger.total_transactions(), 11);
  EXPECT_DOUBLE_EQ(ledger.total_price(), 13.0);
  EXPECT_EQ(ledger.total_calls(), 4);
  EXPECT_EQ(ledger.TenantTransactions("acme"), 10);
  EXPECT_EQ(ledger.TenantTransactions("initech"), 1);
  EXPECT_EQ(ledger.TenantTransactions("ghost"), 0);

  const auto by_dataset = ledger.TenantByDataset("acme");
  ASSERT_EQ(by_dataset.size(), 2u);
  double acme_price = 0.0;
  for (const auto& [dataset, cell] : by_dataset) acme_price += cell.price;
  EXPECT_DOUBLE_EQ(acme_price, 12.0);
  EXPECT_EQ(by_dataset.at("WHW").transactions, 8);
  EXPECT_EQ(by_dataset.at("WHW").calls, 2);
  EXPECT_TRUE(ledger.TenantByDataset("ghost").empty());

  const std::string json = ledger.ToJson();
  EXPECT_NE(json.find("\"acme\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_transactions\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_calls\":4"), std::string::npos) << json;

  ledger.Reset();
  EXPECT_EQ(ledger.total_transactions(), 0);
  EXPECT_EQ(ledger.TenantTransactions("acme"), 0);
}

class LedgerInvariantTest : public ::testing::Test {
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

  std::unique_ptr<PayLess> NewClient(PayLessConfig config = {}) {
    auto client = std::make_unique<PayLess>(&cat_, market_.get(), config);
    EXPECT_TRUE(client->LoadLocalTable("CityMap", city_rows_).ok());
    return client;
  }

  static constexpr int64_t kStations = 32;
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

TEST_F(LedgerInvariantTest, SerialQueriesMatchMeterExactly) {
  auto client = NewClient();
  int64_t reported = 0;
  for (int64_t lo = 1; lo <= kStations; lo += 4) {
    const auto report = client->QueryWithReport(
        kBindSql, {Value(lo), Value(lo + 3)});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->ok());
    reported += report->transactions_spent;
    // The per-dataset breakdown partitions this query's spend.
    int64_t by_dataset = 0;
    for (const auto& [dataset, tx] : report->transactions_by_dataset) {
      by_dataset += tx;
    }
    EXPECT_EQ(by_dataset, report->transactions_spent);
  }
  const CostLedger& ledger = client->observability()->ledger;
  EXPECT_GT(client->meter().total_transactions(), 0);
  EXPECT_EQ(ledger.total_transactions(),
            client->meter().total_transactions());
  EXPECT_DOUBLE_EQ(ledger.total_price(), client->meter().total_price());
  EXPECT_EQ(ledger.TenantTransactions("default"), reported);
}

// Two clients of one tenant report into one context and one ledger. Each
// report reads its own purchase records, so it must hold only its own
// query's purchases.
TEST_F(LedgerInvariantTest, ClientsSharingAContextKeepTheirQueriesApart) {
  Observability shared;
  PayLessConfig config;
  config.observability = &shared;
  auto first = NewClient(config);
  auto second = NewClient(config);
  const auto a =
      first->QueryWithReport(kBindSql, {Value(int64_t{1}), Value(int64_t{4})});
  const auto b = second->QueryWithReport(kBindSql,
                                         {Value(int64_t{1}), Value(int64_t{8})});
  ASSERT_TRUE(a.ok() && a->ok());
  ASSERT_TRUE(b.ok() && b->ok());
  EXPECT_NE(a->query_id, b->query_id);
  EXPECT_EQ(a->transactions_spent, first->meter().total_transactions());
  EXPECT_EQ(b->transactions_spent, second->meter().total_transactions());
  int64_t b_by_dataset = 0;
  for (const auto& [dataset, tx] : b->transactions_by_dataset) {
    b_by_dataset += tx;
  }
  EXPECT_EQ(b_by_dataset, b->transactions_spent);
}

// Runs in the TSan preset: 8 client threads on disjoint footprints against
// ONE shared client; attribution must lose nothing to races.
TEST_F(LedgerInvariantTest, LedgerMatchesMeterUnderEightThreads) {
  auto client = NewClient();
  constexpr int kThreads = 8;
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int64_t f = next.fetch_add(1); f < kStations / 4;
           f = next.fetch_add(1)) {
        const int64_t lo = f * 4 + 1;
        const auto result =
            client->Query(kBindSql, {Value(lo), Value(lo + 3)});
        if (!result.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_FALSE(failed.load());

  const CostLedger& ledger = client->observability()->ledger;
  EXPECT_GT(client->meter().total_transactions(), 0);
  EXPECT_EQ(ledger.total_transactions(),
            client->meter().total_transactions());
  EXPECT_DOUBLE_EQ(ledger.total_price(), client->meter().total_price());
}

// 20% injected faults, including post-evaluation lost responses that are
// billed but never delivered: the ledger must mirror the meter EXACTLY —
// waste is attributed to the tenant who caused the call.
TEST_F(LedgerInvariantTest, LedgerMatchesMeterUnderFaultStorm) {
  PayLessConfig config;
  config.retry.max_attempts = 12;
  config.retry.initial_backoff_micros = 20;
  config.retry.max_backoff_micros = 500;
  auto client = NewClient(config);

  market::FaultProfile profile;
  profile.transient_rate = 0.20 / 3.0;
  profile.lost_response_rate = 0.20 / 3.0;
  profile.rate_limit_rate = 0.20 / 3.0;
  profile.retry_after_micros = 100;
  profile.seed = 42;
  market::FaultInjector injector(profile);
  client->connector()->SetFaultInjector(&injector);

  for (int64_t lo = 1; lo <= kStations; lo += 4) {
    const auto report = client->QueryWithReport(
        kBindSql, {Value(lo), Value(lo + 3)});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->ok()) << report->error.ToString();
  }
  client->connector()->SetFaultInjector(nullptr);

  const market::RetryStats stats = client->connector()->retry_stats();
  EXPECT_GT(stats.wasted_transactions, 0)
      << "fault storm injected no lost responses; raise kStations";
  const CostLedger& ledger = client->observability()->ledger;
  EXPECT_EQ(ledger.total_transactions(),
            client->meter().total_transactions());
  EXPECT_DOUBLE_EQ(ledger.total_price(), client->meter().total_price());
}

}  // namespace
}  // namespace payless::obs
