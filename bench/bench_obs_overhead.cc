// Observability overhead. Not a paper figure — this prices the spend
// observability subsystem itself: a multi-client workload of disjoint
// bind-join query streams, served in four configurations — bare (metrics and
// cost ledger only; they are always on, the cheap handle-based part), with
// estimator-accuracy tracking (q-error recording at every feedback point),
// with full tracing plus a JSONL trace sink on top, and finally with savings
// accounting (a counterfactual optimizer pass per planned query). The gaps
// price each layer separately; the acceptance bar is that the fully loaded
// configuration stays within a few percent of the bare one.
//
//   build/bench/bench_obs_overhead [--call_latency_us=2000] [--repeats=4]
//                                  [--threads=8] [--trials=3]
//                                  [--max_overhead_pct=5]
//                                  [--trace_out=/dev/null]
//                                  [--json=BENCH_obs_overhead.json]
//
// Each configuration runs `trials` times and keeps its best qps (the
// least-noise estimate); the bench exits non-zero when the fully traced
// run is more than --max_overhead_pct slower than the bare one.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/driver.h"
#include "exec/payless.h"
#include "market/data_market.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace payless::bench {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;

constexpr int64_t kNumStations = 128;
constexpr int64_t kNumDates = 30;
constexpr int64_t kStationsPerQuery = 4;

constexpr const char* kBindSql =
    "SELECT Temperature FROM CityMap, Weather "
    "WHERE CityId >= ? AND CityId <= ? AND "
    "CityMap.StationID = Weather.StationID AND "
    "Weather.Country = 'US' AND Date >= 1 AND Date <= 30";

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int Main(int argc, char** argv) {
  const LoadFlags flags = ParseLoadFlags(argc, argv, /*latency_us=*/2000,
                                         /*repeats=*/4, /*threads=*/8,
                                         /*trials=*/3);
  const int64_t latency_us = flags.call_latency_us;
  const int64_t repeats = flags.repeats;
  const int64_t threads = flags.threads;
  const int64_t trials = flags.trials;
  const int64_t max_overhead_pct = FlagOr(argc, argv, "max_overhead_pct", 5);
  const std::string trace_out =
      StringFlagOr(argc, argv, "trace_out", "/dev/null");
  const std::string& json_path = flags.json_path;

  catalog::Catalog cat;
  {
    Status st = cat.RegisterDataset(DatasetDef{"WHW", 1.0, 10});
    assert(st.ok());
    (void)st;
  }
  TableDef weather;
  weather.name = "Weather";
  weather.dataset = "WHW";
  weather.columns = {
      ColumnDef::Free("Country", ValueType::kString,
                      AttrDomain::Categorical({"US"})),
      ColumnDef::Bound("StationID", ValueType::kInt64,
                       AttrDomain::Numeric(1, kNumStations)),
      ColumnDef::Free("Date", ValueType::kInt64,
                      AttrDomain::Numeric(1, kNumDates)),
      ColumnDef::Output("Temperature", ValueType::kDouble)};
  weather.cardinality = kNumStations * kNumDates;
  {
    Status st = cat.RegisterTable(weather);
    assert(st.ok());
    (void)st;
  }
  TableDef citymap;
  citymap.name = "CityMap";
  citymap.is_local = true;
  citymap.columns = {
      ColumnDef::Free("CityId", ValueType::kInt64,
                      AttrDomain::Numeric(1, kNumStations)),
      ColumnDef::Free("StationID", ValueType::kInt64,
                      AttrDomain::Numeric(1, kNumStations))};
  citymap.cardinality = kNumStations;
  {
    Status st = cat.RegisterTable(citymap);
    assert(st.ok());
    (void)st;
  }

  market::DataMarket market(&cat);
  {
    std::vector<Row> rows;
    for (int64_t s = 1; s <= kNumStations; ++s) {
      for (int64_t d = 1; d <= kNumDates; ++d) {
        rows.push_back(Row{Value("US"), Value(s), Value(d),
                           Value(static_cast<double>(s * 1000 + d))});
      }
    }
    Status st = market.HostTable("Weather", std::move(rows));
    assert(st.ok());
    (void)st;
  }
  std::vector<Row> city_rows;
  for (int64_t i = 1; i <= kNumStations; ++i) {
    city_rows.push_back(Row{Value(i), Value(i)});
  }

  struct Job {
    std::vector<Value> params;
  };
  std::vector<std::vector<Job>> streams;
  for (int64_t f = 0; f < kNumStations / kStationsPerQuery; ++f) {
    std::vector<Job> stream;
    const int64_t lo = f * kStationsPerQuery + 1;
    for (int64_t r = 0; r < repeats; ++r) {
      stream.push_back(Job{{Value(lo), Value(lo + kStationsPerQuery - 1)}});
    }
    streams.push_back(std::move(stream));
  }
  const size_t total_queries = streams.size() * static_cast<size_t>(repeats);

  // One timed pass of the whole workload against a fresh client; returns
  // qps, or a negative value when a query failed.
  const auto run_once = [&](bool accuracy, bool tracing, bool savings,
                            obs::Observability* shared) {
    PayLessConfig config;
    // Frozen stats: one stream's feedback cannot flip another stream's plan,
    // so every configuration buys exactly the same calls.
    config.stats_kind = stats::StatsKind::kUniform;
    config.max_parallel_calls = 1;
    config.enable_accuracy_tracking = accuracy;
    config.enable_tracing = tracing;
    config.enable_savings_accounting = savings;
    config.observability = shared;
    auto client = std::make_unique<PayLess>(&cat, &market, config);
    {
      Status st = client->LoadLocalTable("CityMap", city_rows);
      assert(st.ok());
      (void)st;
    }
    client->connector()->SetSimulatedLatencyMicros(latency_us);

    std::atomic<size_t> next_stream{0};
    std::atomic<bool> failed{false};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int64_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (size_t s = next_stream.fetch_add(1); s < streams.size();
             s = next_stream.fetch_add(1)) {
          for (const Job& job : streams[s]) {
            const auto result = client->Query(kBindSql, job.params);
            if (!result.ok()) {
              std::fprintf(stderr, "stream %zu: %s\n", s,
                           result.status().ToString().c_str());
              failed.store(true);
              return;
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double wall_ms = MillisSince(start);
    if (failed.load()) return -1.0;
    return 1000.0 * static_cast<double>(total_queries) / wall_ms;
  };

  std::printf("# bench_obs_overhead: %zu streams x %lld repeats = %zu "
              "queries, %lld threads, call latency %lld us, best of %lld\n",
              streams.size(), static_cast<long long>(repeats), total_queries,
              static_cast<long long>(threads),
              static_cast<long long>(latency_us),
              static_cast<long long>(trials));

  // Full pipeline for the traced configuration: per-query trace with
  // per-call spans, serialized to a JSONL sink. Metrics and the cost
  // ledger are on in BOTH configurations — they are not the knob.
  obs::Observability shared;
  auto sink = obs::JsonlTraceSink::Open(trace_out);
  if (!sink.ok()) {
    std::fprintf(stderr, "cannot open trace sink '%s': %s\n",
                 trace_out.c_str(), sink.status().ToString().c_str());
    return 1;
  }
  shared.trace_sink = sink->get();

  // The fully loaded configuration adds the counterfactual pricing pass.

  // Best-of-N per configuration, trials interleaved so slow machine phases
  // (thermal, noisy neighbours) hit every configuration equally.
  double base_qps = 0.0, accuracy_qps = 0.0, traced_qps = 0.0,
         full_qps = 0.0;
  for (int64_t i = 0; i < trials; ++i) {
    const double base = run_once(/*accuracy=*/false, /*tracing=*/false,
                                 /*savings=*/false, nullptr);
    if (base < 0.0) return 1;
    base_qps = std::max(base_qps, base);
    const double accuracy = run_once(/*accuracy=*/true, /*tracing=*/false,
                                     /*savings=*/false, nullptr);
    if (accuracy < 0.0) return 1;
    accuracy_qps = std::max(accuracy_qps, accuracy);
    const double traced = run_once(/*accuracy=*/true, /*tracing=*/true,
                                   /*savings=*/false, &shared);
    if (traced < 0.0) return 1;
    traced_qps = std::max(traced_qps, traced);
    const double full = run_once(/*accuracy=*/true, /*tracing=*/true,
                                 /*savings=*/true, &shared);
    if (full < 0.0) return 1;
    full_qps = std::max(full_qps, full);
  }

  const double accuracy_pct = 100.0 * (base_qps - accuracy_qps) / base_qps;
  const double traced_pct = 100.0 * (base_qps - traced_qps) / base_qps;
  const double overhead_pct = 100.0 * (base_qps - full_qps) / base_qps;
  std::printf("# config qps\n");
  std::printf("bare %.1f\n", base_qps);
  std::printf("accuracy %.1f\n", accuracy_qps);
  std::printf("accuracy+traced+sink %.1f\n", traced_qps);
  std::printf("accuracy+traced+savings %.1f\n", full_qps);
  std::printf("# accuracy overhead: %.2f%%, traced overhead: %.2f%%, "
              "full overhead: %.2f%% (budget %lld%%)\n",
              accuracy_pct, traced_pct, overhead_pct,
              static_cast<long long>(max_overhead_pct));

  BenchJson json;
  json.Meta("bench", std::string("obs_overhead"));
  json.Meta("total_queries", static_cast<int64_t>(total_queries));
  json.Meta("threads", threads);
  json.Meta("call_latency_us", latency_us);
  json.Meta("trials", trials);
  json.Meta("untraced_qps", base_qps);
  json.Meta("accuracy_qps", accuracy_qps);
  json.Meta("traced_qps", traced_qps);
  json.Meta("full_qps", full_qps);
  json.Meta("accuracy_overhead_pct", accuracy_pct);
  json.Meta("traced_overhead_pct", traced_pct);
  json.Meta("overhead_pct", overhead_pct);
  if (!json.WriteTo(json_path)) return 1;

  if (overhead_pct > static_cast<double>(max_overhead_pct)) {
    std::fprintf(stderr,
                 "observability overhead %.2f%% exceeds budget %lld%%\n",
                 overhead_pct, static_cast<long long>(max_overhead_pct));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
