// Trace spans: exactly-once close semantics, RAII inertness, JSONL sink
// output, the end-to-end shape of a real query's trace — including one
// executed with parallel bind-join dispatch, where pool workers append
// call spans to the query's trace concurrently — and the harvest's own
// span beside a market call's.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"

namespace payless::obs {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;

TEST(ObsTraceTest, SpansCloseExactlyOnce) {
  Trace trace;
  const uint64_t root = trace.StartSpan("query");
  const uint64_t child = trace.StartSpan("parse", root);
  EXPECT_NE(root, 0u);
  EXPECT_NE(child, root);

  EXPECT_TRUE(trace.EndSpan(child));
  EXPECT_FALSE(trace.EndSpan(child));  // second close is rejected
  EXPECT_FALSE(trace.EndSpan(999));    // unknown id is rejected
  EXPECT_TRUE(trace.EndSpan(root));

  const std::vector<SpanRecord> spans = trace.TakeSpans();
  ASSERT_EQ(spans.size(), 2u);
  for (const SpanRecord& span : spans) {
    EXPECT_TRUE(span.closed());
    EXPECT_GE(span.duration_micros, 0);
  }
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(trace.num_spans(), 0u);  // TakeSpans empties the trace
}

TEST(ObsTraceTest, ScopedSpanIsInertWithoutTrace) {
  ScopedSpan span(nullptr, "never");
  EXPECT_EQ(span.id(), 0u);
  span.AddAttr("key", std::string("value"));  // must not crash
  span.AddAttr("n", int64_t{42});
}

TEST(ObsTraceTest, ScopedSpanClosesOnScopeExit) {
  Trace trace;
  {
    ScopedSpan span(&trace, "work");
    span.AddAttr("rows", int64_t{7});
  }
  const std::vector<SpanRecord> spans = trace.TakeSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].closed());
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "rows");
  EXPECT_EQ(spans[0].attrs[0].second, "7");
}

TEST(ObsTraceTest, SpansToJsonEscapesStrings) {
  Trace trace;
  const uint64_t id = trace.StartSpan("q");
  trace.AddAttr(id, "sql", std::string("SELECT \"x\"\nFROM t"));
  trace.EndSpan(id);
  const std::string json = SpansToJson(trace.TakeSpans());
  EXPECT_NE(json.find("SELECT \\\"x\\\"\\nFROM t"), std::string::npos) << json;
}

TEST(ObsTraceTest, JsonlSinkWritesOneLinePerQuery) {
  const std::string path = ::testing::TempDir() + "/trace_sink_test.jsonl";
  auto sink = JsonlTraceSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();

  Trace trace;
  trace.EndSpan(trace.StartSpan("query"));
  (*sink)->Emit("acme", 1, trace.TakeSpans());
  (*sink)->Emit("acme", 2, {});
  EXPECT_EQ((*sink)->lines_written(), 2);
  sink->reset();  // flushes and closes

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t lines = 0;
  std::string first;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    if (lines++ == 0) first = buf;
  }
  std::fclose(f);
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(first.find("\"tenant\":\"acme\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"query_id\":1"), std::string::npos) << first;
  EXPECT_NE(first.find("\"name\":\"query\""), std::string::npos) << first;
}

/// Checks the structural invariants every finished query trace must hold:
/// all spans closed, ids unique, exactly one root, every parent resolvable.
void ExpectWellFormed(const std::vector<SpanRecord>& spans) {
  std::set<uint64_t> ids;
  size_t roots = 0;
  for (const SpanRecord& span : spans) {
    EXPECT_TRUE(span.closed()) << span.name << " left open";
    EXPECT_TRUE(ids.insert(span.id).second) << "duplicate id " << span.id;
    if (span.parent == 0) ++roots;
  }
  EXPECT_EQ(roots, 1u);
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      EXPECT_TRUE(ids.count(span.parent) > 0)
          << span.name << " has unknown parent " << span.parent;
    }
  }
}

class TraceQueryTest : public ::testing::Test {
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

TEST_F(TraceQueryTest, QueryReportCarriesWellFormedTrace) {
  PayLess client(&cat_, market_.get(), {});
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());

  const auto report = client.QueryWithReport(
      kBindSql, {Value(int64_t{1}), Value(int64_t{4})});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok());
  ASSERT_FALSE(report->trace.empty());
  ExpectWellFormed(report->trace);

  std::map<std::string, int> names;
  for (const SpanRecord& span : report->trace) ++names[span.name];
  EXPECT_EQ(names["query"], 1);
  EXPECT_EQ(names["parse"], 1);
  EXPECT_EQ(names["bind"], 1);
  EXPECT_EQ(names["plan"], 1);
  EXPECT_EQ(names["execute"], 1);
  EXPECT_GE(names["access:Weather"], 1);
  EXPECT_GE(names["market.get"], 1);

  // Market-call spans carry the billing attributes the ISSUE promises.
  for (const SpanRecord& span : report->trace) {
    if (span.name != "market.get") continue;
    std::map<std::string, std::string> attrs(span.attrs.begin(),
                                             span.attrs.end());
    EXPECT_EQ(attrs["dataset"], "WHW");
    EXPECT_TRUE(attrs.count("transactions")) << "no transactions attr";
    EXPECT_TRUE(attrs.count("attempts"));
    EXPECT_EQ(attrs["outcome"], "ok");
  }
}

TEST_F(TraceQueryTest, DisablingTracingYieldsEmptyTrace) {
  PayLessConfig config;
  config.enable_tracing = false;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());
  const auto report = client.QueryWithReport(
      kBindSql, {Value(int64_t{1}), Value(int64_t{4})});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->trace.empty());
  // Attribution is not tied to tracing: the breakdown is still there.
  EXPECT_FALSE(report->transactions_by_dataset.empty());
}

// The harvest (store write, statistics feedback) is buyer work: a delivered
// call's market.get span closes before the listeners run, and a harvest
// span under the same parent covers them.
TEST_F(TraceQueryTest, HarvestRunsInItsOwnSpanAfterTheMarketCall) {
  static constexpr int64_t kListenerMicros = 20'000;
  market::MarketConnector connector(market_.get());
  connector.AddListener([](const market::RestCall&,
                           const market::CallResult&) {
    std::this_thread::sleep_for(std::chrono::microseconds(kListenerMicros));
  });
  Trace trace;
  const uint64_t access = trace.StartSpan("access:Weather");
  market::CallObs call_obs;
  call_obs.trace = &trace;
  call_obs.parent_span = access;
  market::RestCall call;
  call.table = "Weather";
  call.conditions = {market::AttrCondition::Point(Value("US")),
                     market::AttrCondition::Point(Value(int64_t{3})),
                     market::AttrCondition::None(),
                     market::AttrCondition::None()};
  ASSERT_TRUE(connector.Get(call, market::kNoDeadline, &call_obs).ok());
  trace.EndSpan(access);

  const std::vector<SpanRecord> spans = trace.TakeSpans();
  ExpectWellFormed(spans);
  const SpanRecord* get = nullptr;
  const SpanRecord* harvest = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.name == "market.get") get = &span;
    if (span.name == "harvest") harvest = &span;
  }
  ASSERT_NE(get, nullptr);
  ASSERT_NE(harvest, nullptr) << "no harvest span";
  EXPECT_EQ(get->parent, access);
  EXPECT_EQ(harvest->parent, access);
  EXPECT_LE(get->start_micros + get->duration_micros, harvest->start_micros);
  EXPECT_GE(harvest->duration_micros, kListenerMicros);
}

// Pool workers of a parallel bind join append their call spans to the
// query's trace concurrently; the trace must stay well-formed and every
// per-binding-value call span must nest under the Weather access span.
TEST_F(TraceQueryTest, NestingSurvivesParallelBindJoinDispatch) {
  PayLessConfig config;
  config.max_parallel_calls = 8;
  PayLess client(&cat_, market_.get(), config);
  ASSERT_TRUE(client.LoadLocalTable("CityMap", city_rows_).ok());

  const auto report = client.QueryWithReport(
      kBindSql, {Value(int64_t{1}), Value(int64_t{16})});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok());
  ExpectWellFormed(report->trace);

  uint64_t access_id = 0;
  for (const SpanRecord& span : report->trace) {
    if (span.name == "access:Weather") access_id = span.id;
  }
  ASSERT_NE(access_id, 0u);
  size_t calls_under_access = 0;
  for (const SpanRecord& span : report->trace) {
    if (span.name == "market.get") {
      EXPECT_EQ(span.parent, access_id);
      ++calls_under_access;
    }
  }
  EXPECT_GE(calls_under_access, 2u);
}

}  // namespace
}  // namespace payless::obs
