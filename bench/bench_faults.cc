// Resilience overhead against a flaky market. Not a paper figure — this
// quantifies the cost of the failure model: N client threads serve
// disjoint bind-join streams against ONE shared PayLess while the fault
// injector drops calls, loses responses (post-evaluation: billed by the
// seller, delivered to nobody) and throttles, at increasing fault rates.
//
//   build/bench/bench_faults [--call_latency_us=500] [--repeats=3]
//                            [--threads=8] [--trials=3]
//
// Reported per fault rate (0%, 1%, 5%, 20%, split evenly between the
// three fault kinds): queries per second, retries, total billed
// transactions, and the wasted transactions/price of lost responses.
// Each rate runs --trials times (fresh client and injector, same seed)
// and reports the best-throughput trial — a single trial on a busy box is
// dominated by scheduler noise. The billing invariant is checked on EVERY
// trial, not just the reported one: total - wasted == fault-free total
// (retries and rate limits cost time, never money; every extra billed
// transaction is an accounted post-evaluation loss).
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
#include "market/fault_injector.h"

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
  const LoadFlags flags = ParseLoadFlags(argc, argv, /*latency_us=*/500,
                                         /*repeats=*/3, /*threads=*/8,
                                         /*trials=*/3);
  const int64_t latency_us = flags.call_latency_us;
  const int64_t repeats = flags.repeats;
  const int64_t threads = flags.threads;
  const int64_t trials = flags.trials;
  const std::string& json_path = flags.json_path;
  BenchJson json;

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
      // Bound point probes: disjoint streams stay disjoint at the call
      // level, so the fault-free bill is interleaving-independent and the
      // waste accounting below is exact.
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

  // Disjoint streams of repeated footprints, claimed whole by one thread.
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

  // One trial at one fault rate: fresh client, fresh injector (same seed).
  // Fills `out` and returns false on a query failure or a broken billing
  // invariant — both are hard errors regardless of which trial they hit.
  struct TrialResult {
    double qps = 0.0;
    int64_t retries = 0;
    int64_t total_tx = 0;
    int64_t wasted_tx = 0;
    int64_t wasted_calls = 0;
    double wasted_price = 0.0;
  };
  const auto run_trial = [&](double fault_rate, int64_t fault_free_tx,
                             TrialResult* out) -> bool {
    PayLessConfig config;
    // Frozen stats: one stream's feedback cannot flip another stream's plan,
    // so the fault-free bill is interleaving-independent.
    config.stats_kind = stats::StatsKind::kUniform;
    config.max_parallel_calls = 1;
    config.retry.max_attempts = 12;
    config.retry.initial_backoff_micros = 50;
    config.retry.max_backoff_micros = 2'000;
    auto client = std::make_unique<PayLess>(&cat, &market, config);
    {
      Status st = client->LoadLocalTable("CityMap", city_rows);
      assert(st.ok());
      (void)st;
    }
    client->connector()->SetSimulatedLatencyMicros(latency_us);

    market::FaultProfile profile;
    profile.transient_rate = fault_rate / 3.0;
    profile.lost_response_rate = fault_rate / 3.0;
    profile.rate_limit_rate = fault_rate / 3.0;
    profile.retry_after_micros = 2 * latency_us;
    profile.seed = 1234;
    market::FaultInjector injector(profile);
    if (fault_rate > 0.0) client->connector()->SetFaultInjector(&injector);

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
    client->connector()->SetFaultInjector(nullptr);
    if (failed.load()) return false;

    const market::RetryStats stats = client->connector()->retry_stats();
    const int64_t total_tx = client->meter().total_transactions();
    const int64_t useful_tx = total_tx - stats.wasted_transactions;
    if (fault_free_tx >= 0 && useful_tx != fault_free_tx) {
      std::fprintf(stderr,
                   "BILLING CONTRACT BROKEN at rate %.2f: useful %lld vs "
                   "fault-free %lld\n",
                   fault_rate, static_cast<long long>(useful_tx),
                   static_cast<long long>(fault_free_tx));
      return false;
    }
    out->qps = 1000.0 * static_cast<double>(total_queries) / wall_ms;
    out->retries = stats.retries;
    out->total_tx = total_tx;
    out->wasted_tx = stats.wasted_transactions;
    out->wasted_calls = stats.wasted_calls;
    out->wasted_price = stats.wasted_price;
    return true;
  };

  // Best of --trials at each rate, reporting the fastest trial's row; a
  // single trial on a loaded machine measures the scheduler, not us.
  const auto run_at = [&](double fault_rate, int64_t fault_free_tx,
                          bool* ok) -> int64_t {
    TrialResult best;
    for (int64_t trial = 0; trial < trials; ++trial) {
      TrialResult result;
      if (!run_trial(fault_rate, fault_free_tx, &result)) {
        *ok = false;
        return 0;
      }
      if (trial == 0 || result.qps > best.qps) best = result;
    }
    std::printf("%.2f %.1f %lld %lld %lld %lld %.1f\n", fault_rate, best.qps,
                static_cast<long long>(best.retries),
                static_cast<long long>(best.total_tx),
                static_cast<long long>(best.wasted_tx),
                static_cast<long long>(best.wasted_calls),
                best.wasted_price);
    json.BeginRow("rates");
    json.Field("fault_rate", fault_rate);
    json.Field("qps", best.qps);
    json.Field("retries", best.retries);
    json.Field("total_transactions", best.total_tx);
    json.Field("wasted_transactions", best.wasted_tx);
    json.Field("wasted_calls", best.wasted_calls);
    json.Field("wasted_price", best.wasted_price);
    *ok = true;
    return best.total_tx;
  };

  json.Meta("bench", std::string("faults"));
  json.Meta("streams", static_cast<int64_t>(streams.size()));
  json.Meta("repeats", repeats);
  json.Meta("total_queries", static_cast<int64_t>(total_queries));
  json.Meta("threads", threads);
  json.Meta("call_latency_us", latency_us);
  json.Meta("trials", trials);
  std::printf("# bench_faults: %zu streams x %lld repeats = %zu queries, "
              "%lld threads, call latency %lld us, best of %lld trials\n",
              streams.size(), static_cast<long long>(repeats), total_queries,
              static_cast<long long>(threads),
              static_cast<long long>(latency_us),
              static_cast<long long>(trials));
  std::printf("# fault_rate qps retries total_tx wasted_tx wasted_calls "
              "wasted_price\n");
  bool ok = false;
  const int64_t fault_free_tx = run_at(0.0, -1, &ok);
  if (!ok) return 1;
  for (const double rate : {0.01, 0.05, 0.20}) {
    run_at(rate, fault_free_tx, &ok);
    if (!ok) return 1;
  }
  return json.WriteTo(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
