#include "market/data_market.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "market/rest_call.h"

namespace payless::market {
namespace {

using catalog::AttrDomain;
using catalog::BindingKind;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class MarketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 100}).ok());
    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "US"})),
        ColumnDef::Bound("StationID", ValueType::kInt64,
                         AttrDomain::Numeric(1, 50)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(100, 400)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = 0;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    TableDef station;
    station.name = "Station";
    station.dataset = "WHW";
    station.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 50))};
    station.cardinality = 0;
    ASSERT_TRUE(cat_.RegisterTable(station).ok());

    market_ = std::make_unique<DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t station_id = 1; station_id <= 50; ++station_id) {
      for (int64_t date = 100; date <= 400; date += 10) {
        rows.push_back(Row{Value(station_id % 2 == 0 ? "US" : "Canada"),
                           Value(station_id), Value(date), Value(20.5)});
      }
    }
    total_rows_ = static_cast<int64_t>(rows.size());
    ASSERT_TRUE(market_->HostTable("Weather", std::move(rows)).ok());
    std::vector<Row> stations;
    for (int64_t station_id = 1; station_id <= 50; ++station_id) {
      stations.push_back(Row{Value(station_id % 2 == 0 ? "US" : "Canada"),
                             Value(station_id)});
    }
    ASSERT_TRUE(market_->HostTable("Station", std::move(stations)).ok());
  }

  const TableDef& weather() const { return *cat_.FindTable("Weather"); }
  const TableDef& station() const { return *cat_.FindTable("Station"); }

  catalog::Catalog cat_;
  std::unique_ptr<DataMarket> market_;
  int64_t total_rows_ = 0;
};

TEST(TransactionsForTest, Equation1) {
  EXPECT_EQ(TransactionsFor(0, 100), 0);
  EXPECT_EQ(TransactionsFor(1, 100), 1);
  EXPECT_EQ(TransactionsFor(100, 100), 1);
  EXPECT_EQ(TransactionsFor(101, 100), 2);
  EXPECT_EQ(TransactionsFor(4400, 100), 44);  // the paper's WHW example
  EXPECT_EQ(TransactionsFor(23640, 100), 237);  // Fig. 1b call C2
}

TEST(AttrConditionTest, MatchesSemantics) {
  EXPECT_TRUE(AttrCondition::None().Matches(Value("anything")));
  EXPECT_TRUE(AttrCondition::Point(Value("US")).Matches(Value("US")));
  EXPECT_FALSE(AttrCondition::Point(Value("US")).Matches(Value("Canada")));
  EXPECT_FALSE(AttrCondition::Point(Value("US")).Matches(Value::Null()));
  EXPECT_TRUE(AttrCondition::Range(5, 10).Matches(Value(int64_t{5})));
  EXPECT_TRUE(AttrCondition::Range(5, 10).Matches(Value(7.5)));
  EXPECT_FALSE(AttrCondition::Range(5, 10).Matches(Value(int64_t{11})));
  EXPECT_FALSE(AttrCondition::Range(5, 10).Matches(Value("7")));
}

TEST_F(MarketTest, ValidateRejectsMissingBoundAttr) {
  RestCall call = RestCall::Unconstrained(weather());
  EXPECT_EQ(call.Validate(weather()).code(),
            Status::Code::kBindingViolation);
  call.conditions[1] = AttrCondition::Point(Value(int64_t{3}));
  EXPECT_TRUE(call.Validate(weather()).ok());
}

TEST_F(MarketTest, ValidateRejectsConstrainedOutputAttr) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{3}));
  call.conditions[3] = AttrCondition::Range(0, 10);
  EXPECT_EQ(call.Validate(weather()).code(),
            Status::Code::kBindingViolation);
}

TEST_F(MarketTest, ValidateRejectsRangeOnCategorical) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{3}));
  call.conditions[0] = AttrCondition::Range(0, 1);
  EXPECT_EQ(call.Validate(weather()).code(),
            Status::Code::kBindingViolation);
}

TEST_F(MarketTest, ValidateRejectsArityMismatch) {
  RestCall call;
  call.table = "Weather";
  call.conditions.resize(2);
  EXPECT_FALSE(call.Validate(weather()).ok());
}

TEST_F(MarketTest, ValidateRejectsWrongTable) {
  RestCall call = RestCall::Unconstrained(weather());
  EXPECT_FALSE(call.Validate(station()).ok());
}

TEST_F(MarketTest, ExecutePricesByEquation1) {
  RestCall call = RestCall::Unconstrained(station());
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 50);
  EXPECT_EQ(result->transactions, 1);
  EXPECT_DOUBLE_EQ(result->price, 1.0);
}

TEST_F(MarketTest, ExecuteFiltersByPointAndRange) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[0] = AttrCondition::Point(Value("US"));
  call.conditions[1] = AttrCondition::Point(Value(int64_t{2}));
  call.conditions[2] = AttrCondition::Range(100, 200);
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 11);  // dates 100..200 step 10
  for (const Row& row : result->rows) {
    EXPECT_EQ(row[0], Value("US"));
    EXPECT_EQ(row[1], Value(int64_t{2}));
  }
}

TEST_F(MarketTest, ExecuteEmptyResultIsFree) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{49}));
  call.conditions[0] = AttrCondition::Point(Value("US"));  // 49 is Canada
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 0);
  EXPECT_EQ(result->transactions, 0);
}

TEST_F(MarketTest, ExecuteUnknownTableFails) {
  RestCall call;
  call.table = "Nope";
  EXPECT_EQ(market_->Execute(call).status().code(), Status::Code::kNotFound);
}

TEST_F(MarketTest, IndexedExecutionMatchesFullScan) {
  // Property: every call answered via indexes returns exactly the rows a
  // brute-force scan of the hosted data returns.
  Rng rng(99);
  const std::vector<Row>* hosted = market_->HostedRows("Weather");
  ASSERT_NE(hosted, nullptr);
  for (int trial = 0; trial < 30; ++trial) {
    RestCall call = RestCall::Unconstrained(weather());
    call.conditions[1] =
        AttrCondition::Point(Value(rng.Uniform(1, 55)));  // may miss
    if (rng.Chance(0.5)) {
      call.conditions[0] =
          AttrCondition::Point(Value(rng.Chance(0.5) ? "US" : "Canada"));
    }
    if (rng.Chance(0.7)) {
      const int64_t lo = rng.Uniform(100, 400);
      call.conditions[2] = AttrCondition::Range(lo, rng.Uniform(lo, 400));
    }
    Result<CallResult> result = market_->Execute(call);
    ASSERT_TRUE(result.ok());
    int64_t expected = 0;
    for (const Row& row : *hosted) {
      if (call.MatchesRow(row)) ++expected;
    }
    EXPECT_EQ(result->num_records, expected);
  }
}

/// The real bundle's binding pattern (every constrainable attribute free)
/// over skewed data: one dominant country, so a point posting can be far
/// wider than a date span, and the other way round.
class SellerScanTest : public ::testing::Test {
 protected:
  static constexpr int64_t kStations = 40;
  static constexpr int64_t kDates = 200;

  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 100}).ok());
    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "Chile", "US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 1000)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(1, kDates)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());
    market_ = std::make_unique<DataMarket>(&cat_);
    // Station-major like the WHW generator, but with dates shuffled per
    // station so span order and row order differ; every 7th row is sent
    // twice and must collapse.
    Rng rng(7);
    std::vector<Row> rows;
    for (int64_t s = 1; s <= kStations; ++s) {
      const char* country = s % 4 == 0 ? "Canada" : "US";
      std::vector<int64_t> dates;
      for (int64_t d = 1; d <= kDates; ++d) dates.push_back(d);
      rng.Shuffle(&dates);
      for (const int64_t d : dates) {
        rows.push_back(Row{Value(country), Value(s), Value(d),
                           Value(rng.UniformReal(-10.0, 30.0))});
        if (rows.size() % 7 == 0) rows.push_back(rows.back());
      }
    }
    ASSERT_TRUE(market_->HostTable("Weather", std::move(rows)).ok());
  }

  const TableDef& weather() const { return *cat_.FindTable("Weather"); }

  /// Brute-force answer under the order contract: ascending row index when
  /// the call has a point condition, otherwise span order (value, then row
  /// index) of the narrowest range column (first such column on ties), and
  /// row order for unconstrained calls.
  std::vector<Row> Reference(const RestCall& call) const {
    const std::vector<Row>& hosted = *market_->HostedRows("Weather");
    std::vector<size_t> order(hosted.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    bool has_point = false;
    std::optional<size_t> span_col;
    size_t span_width = 0;
    for (size_t col = 0; col < call.conditions.size(); ++col) {
      const AttrCondition& cond = call.conditions[col];
      if (cond.kind == AttrCondition::Kind::kPoint) has_point = true;
      if (cond.kind != AttrCondition::Kind::kRange) continue;
      size_t width = 0;
      for (const Row& row : hosted) {
        width += row[col].is_int64() && cond.range.Contains(row[col].AsInt64());
      }
      if (!span_col.has_value() || width < span_width) {
        span_col = col;
        span_width = width;
      }
    }
    if (!has_point && span_col.has_value()) {
      const size_t col = *span_col;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return hosted[a][col].AsInt64() < hosted[b][col].AsInt64();
      });
    }
    std::vector<Row> out;
    for (const size_t i : order) {
      if (call.MatchesRow(hosted[i])) out.push_back(hosted[i]);
    }
    return out;
  }

  void ExpectMatchesReference(const RestCall& call) const {
    Result<CallResult> got = market_->Execute(call);
    ASSERT_TRUE(got.ok()) << call.ToString();
    const std::vector<Row> want = Reference(call);
    const int64_t n = static_cast<int64_t>(want.size());
    EXPECT_EQ(got->rows, want) << call.ToString();
    EXPECT_EQ(got->num_records, n) << call.ToString();
    EXPECT_EQ(got->transactions, TransactionsFor(n, 100)) << call.ToString();
  }

  RestCall Call(std::optional<std::string> country,
                std::optional<int64_t> station,
                std::optional<Interval> stations,
                std::optional<Interval> dates) const {
    RestCall call = RestCall::Unconstrained(weather());
    if (country.has_value()) {
      call.conditions[0] = AttrCondition::Point(Value(*country));
    }
    if (station.has_value()) {
      call.conditions[1] = AttrCondition::Point(Value(*station));
    }
    if (stations.has_value()) {
      call.conditions[1] = AttrCondition::Range(stations->lo, stations->hi);
    }
    if (dates.has_value()) {
      call.conditions[2] = AttrCondition::Range(dates->lo, dates->hi);
    }
    return call;
  }

  catalog::Catalog cat_;
  std::unique_ptr<DataMarket> market_;
};

TEST_F(SellerScanTest, HostingCollapsesDuplicateRows) {
  ASSERT_EQ(*market_->TableSize("Weather"), kStations * kDates);
  const std::vector<Row> hosted = *market_->HostedRows("Weather");
  // An existing row, a new row twice: one row is added.
  const Row fresh{Value("Chile"), Value(int64_t{500}), Value(int64_t{3}),
                  Value(1.5)};
  ASSERT_TRUE(market_->AppendRows("Weather", {hosted[5], fresh, fresh}).ok());
  EXPECT_EQ(*market_->TableSize("Weather"), kStations * kDates + 1);
  EXPECT_EQ(market_->HostedRows("Weather")->back(), fresh);
  ExpectMatchesReference(Call("Chile", std::nullopt, std::nullopt, {}));
}

TEST_F(SellerScanTest, RejectedAppendHostsNoneOfItsRows) {
  // One short row rejects the whole batch: the good row before it must not
  // be hosted unindexed, where a point call cannot see it.
  const Row fresh{Value("Chile"), Value(int64_t{500}), Value(int64_t{3}),
                  Value(1.5)};
  const Row short_row{Value("Chile"), Value(int64_t{501})};
  EXPECT_EQ(market_->AppendRows("Weather", {fresh, short_row}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(*market_->TableSize("Weather"), kStations * kDates);
  ExpectMatchesReference(Call("Chile", std::nullopt, std::nullopt, {}));
  // Appending the good row alone then hosts and indexes it.
  ASSERT_TRUE(market_->AppendRows("Weather", {fresh}).ok());
  EXPECT_EQ(*market_->TableSize("Weather"), kStations * kDates + 1);
  ExpectMatchesReference(Call("Chile", std::nullopt, std::nullopt, {}));
}

TEST_F(SellerScanTest, NonIntegerRangeValueKeepsThePostingScan) {
  // A double in a numeric column can match a range but is missing from
  // the sorted projection, so the narrow date span must not replace the
  // country posting once such a row is hosted.
  const Row odd{Value("Canada"), Value(int64_t{4}), Value(10.5), Value(0.0)};
  ASSERT_TRUE(market_->AppendRows("Weather", {odd}).ok());
  const RestCall call =
      Call("Canada", std::nullopt, std::nullopt, Interval(10, 11));
  ExpectMatchesReference(call);
  const std::vector<Row> rows = market_->Execute(call)->rows;
  EXPECT_NE(std::find(rows.begin(), rows.end(), odd), rows.end());
}

TEST_F(SellerScanTest, EveryCallShapeMatchesBruteForce) {
  const std::vector<RestCall> calls = {
      // Point only: a wide posting, a narrow one.
      Call("US", std::nullopt, std::nullopt, std::nullopt),
      Call(std::nullopt, 5, std::nullopt, std::nullopt),
      // Range only: one range, two ranges with either side narrower.
      Call(std::nullopt, std::nullopt, std::nullopt, Interval(10, 20)),
      Call(std::nullopt, std::nullopt, Interval(3, 8), std::nullopt),
      Call(std::nullopt, std::nullopt, Interval(3, 4), Interval(10, 150)),
      Call(std::nullopt, std::nullopt, Interval(1, 30), Interval(10, 12)),
      // Point plus range: the span narrower, then the posting narrower.
      Call("US", std::nullopt, std::nullopt, Interval(10, 12)),
      Call("US", std::nullopt, Interval(6, 6), std::nullopt),
      Call(std::nullopt, 7, std::nullopt, Interval(1, 150)),
      Call("Canada", std::nullopt, Interval(1, 40), Interval(50, 51)),
      // Two points.
      Call("US", 5, std::nullopt, std::nullopt),
      Call("Canada", 5, std::nullopt, std::nullopt),  // 5 is US: empty
      // A value with no posting, alone and beside a narrow span.
      Call("Chile", std::nullopt, std::nullopt, std::nullopt),
      Call(std::nullopt, 999, std::nullopt, Interval(10, 10)),
      // Unconstrained.
      Call(std::nullopt, std::nullopt, std::nullopt, std::nullopt),
  };
  for (const RestCall& call : calls) ExpectMatchesReference(call);
}

TEST_F(SellerScanTest, RandomCallsMatchBruteForce) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::optional<std::string> country;
    std::optional<int64_t> station;
    std::optional<Interval> stations;
    std::optional<Interval> dates;
    if (rng.Chance(0.5)) country = rng.Chance(0.7) ? "US" : "Canada";
    if (rng.Chance(0.3)) {
      station = rng.Uniform(1, kStations + 5);  // may miss
    } else if (rng.Chance(0.3)) {
      const int64_t lo = rng.Uniform(1, kStations);
      stations = Interval(lo, rng.Uniform(lo, kStations));
    }
    if (rng.Chance(0.7)) {
      const int64_t lo = rng.Uniform(1, kDates);
      dates = Interval(lo, std::min(kDates, lo + rng.Uniform(0, 60)));
    }
    ExpectMatchesReference(Call(country, station, stations, dates));
  }
}

TEST_F(MarketTest, AppendRowsVisibleAndPriced) {
  ASSERT_TRUE(market_
                  ->AppendRows("Station", {{Value("US"), Value(int64_t{7})}})
                  .ok());
  RestCall call = RestCall::Unconstrained(station());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{7}));
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 2);  // original + appended
}

TEST_F(MarketTest, HostRejectsLocalAndUnknownTables) {
  EXPECT_EQ(market_->HostTable("Nope", {}).code(), Status::Code::kNotFound);
}

TEST_F(MarketTest, TableSize) {
  Result<int64_t> size = market_->TableSize("Weather");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, total_rows_);
}

TEST_F(MarketTest, ConnectorBillsAndNotifies) {
  MarketConnector connector(market_.get());
  int notified = 0;
  connector.AddListener([&notified](const RestCall&, const CallResult& r) {
    ++notified;
    EXPECT_GT(r.num_records, 0);
  });
  RestCall call = RestCall::Unconstrained(station());
  ASSERT_TRUE(connector.Get(call).ok());
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(connector.meter().total_calls(), 1);
  EXPECT_EQ(connector.meter().total_transactions(), 1);
  EXPECT_EQ(connector.meter().TransactionsFor("WHW"), 1);
  // Failed calls do not bill or notify.
  RestCall bad = RestCall::Unconstrained(weather());
  EXPECT_FALSE(connector.Get(bad).ok());
  EXPECT_EQ(connector.meter().total_calls(), 1);
  EXPECT_EQ(notified, 1);
}

TEST_F(MarketTest, MeterResetAndReport) {
  MarketConnector connector(market_.get());
  ASSERT_TRUE(connector.Get(RestCall::Unconstrained(station())).ok());
  EXPECT_NE(connector.meter().Report().find("WHW"), std::string::npos);
  connector.mutable_meter()->Reset();
  EXPECT_EQ(connector.meter().total_transactions(), 0);
}

TEST_F(MarketTest, CallRegionEncodesConditions) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[0] = AttrCondition::Point(Value("US"));
  call.conditions[1] = AttrCondition::Point(Value(int64_t{7}));
  call.conditions[2] = AttrCondition::Range(150, 500);  // clipped to 400
  const Box region = CallRegion(weather(), call);
  ASSERT_EQ(region.num_dims(), 3u);
  EXPECT_EQ(region.dim(0), Interval::Point(1));  // "US" is code 1
  EXPECT_EQ(region.dim(1), Interval::Point(7));
  EXPECT_EQ(region.dim(2), Interval(150, 400));
}

TEST_F(MarketTest, CallRegionOutOfDomainPointIsEmpty) {
  RestCall call = RestCall::Unconstrained(station());
  call.conditions[0] = AttrCondition::Point(Value("Atlantis"));
  EXPECT_TRUE(CallRegion(station(), call).empty());
}

TEST_F(MarketTest, CallFromRegionRoundTrips) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[0] = AttrCondition::Point(Value("Canada"));
  call.conditions[1] = AttrCondition::Point(Value(int64_t{9}));
  call.conditions[2] = AttrCondition::Range(110, 120);
  const Box region = CallRegion(weather(), call);
  Result<RestCall> rebuilt = CallFromRegion(weather(), region);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->Validate(weather()).ok());
  EXPECT_EQ(CallRegion(weather(), *rebuilt), region);
}

TEST_F(MarketTest, CallFromRegionFullDomainBecomesUnconstrained) {
  const Box region = station().FullRegion();
  Result<RestCall> call = CallFromRegion(station(), region);
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->conditions[0].is_none());
  EXPECT_TRUE(call->conditions[1].is_none());
}

TEST_F(MarketTest, CallFromRegionBoundNumericFullDomainGetsExplicitRange) {
  Box region = weather().FullRegion();
  region.dim(0) = Interval::Point(0);  // Canada
  Result<RestCall> call = CallFromRegion(weather(), region);
  ASSERT_TRUE(call.ok());
  // StationID is bound: the full domain must be passed as an explicit range.
  EXPECT_EQ(call->conditions[1].kind, AttrCondition::Kind::kRange);
  EXPECT_TRUE(call->Validate(weather()).ok());
}

TEST_F(MarketTest, CallFromRegionRejectsCategoricalSubRange) {
  TableDef def = station();
  Box region = def.FullRegion();
  // Two-country domain: a strict sub-range of width 2 equals the domain, so
  // widen the catalog first.
  catalog::Catalog cat2;
  ASSERT_TRUE(cat2.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
  TableDef wide;
  wide.name = "T";
  wide.dataset = "D";
  wide.columns = {ColumnDef::Free(
      "c", ValueType::kString,
      AttrDomain::Categorical({"a", "b", "c", "d"}))};
  wide.cardinality = 0;
  ASSERT_TRUE(cat2.RegisterTable(wide).ok());
  const Box sub({Interval(1, 2)});
  EXPECT_EQ(CallFromRegion(*cat2.FindTable("T"), sub).status().code(),
            Status::Code::kBindingViolation);
  (void)region;
}

TEST_F(MarketTest, CallFromRegionRejectsEmptyAndMismatched) {
  EXPECT_FALSE(CallFromRegion(station(), Box({Interval::Empty(),
                                              Interval(1, 2)}))
                   .ok());
  EXPECT_FALSE(CallFromRegion(station(), Box({Interval(0, 1)})).ok());
}

}  // namespace
}  // namespace payless::market
