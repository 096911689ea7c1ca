// Steady-state queries must never take the metrics-registry mutex: every
// hot-path instrument is resolved to a handle at construction (or, for
// per-table accuracy instruments, at table preparation). The registry
// counts every name->handle lookup, so the assertion is simply that the
// count is FLAT while warm queries are being served — cold paths (client
// construction, first-touch of a table) may look up freely.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/payless.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

constexpr int64_t kNumStations = 16;
constexpr int64_t kNumDates = 5;

class HotPathMetricsTest : public ::testing::Test {
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

TEST_F(HotPathMetricsTest, SteadyStateQueriesTakeNoRegistryLookups) {
  PayLess client(&cat_, market_.get(), PayLessConfig{});
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  obs::MetricsRegistry& registry = client.observability()->metrics;

  const std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{4})};
  const std::vector<Value> cold_params = {Value(int64_t{5}),
                                          Value(int64_t{8})};

  // Warm-up: first queries may resolve handles (per-table preparation,
  // first market fetch, plan-template creation) — both footprints, so the
  // steady-state loop below replays fetched-and-cached paths only.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(kBindSql, params).ok());
    ASSERT_TRUE(client.Query(kBindSql, cold_params).ok());
  }

  const int64_t lookups_before = registry.lookup_count();
  const auto cache_before = client.plan_cache().Stats();

  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(client.Query(kBindSql, params).ok());
    ASSERT_TRUE(client.Query(kBindSql, cold_params).ok());
  }

  // The whole point: zero name->handle lookups — hence zero registry mutex
  // acquisitions — across 50 steady-state queries.
  EXPECT_EQ(registry.lookup_count(), lookups_before);

  // And those queries really were the hot path: plan-template cache hits,
  // not re-optimizations.
  const auto cache_after = client.plan_cache().Stats();
  EXPECT_GT(cache_after.hits, cache_before.hits);
  EXPECT_EQ(cache_after.misses, cache_before.misses);

  // Metrics themselves still flowed: queries were counted without lookups.
  // (Read after the lookup check: GetCounter is itself a lookup.)
  EXPECT_EQ(registry.GetCounter("payless_queries_total")->value(), 56);
}

}  // namespace
}  // namespace payless::exec
