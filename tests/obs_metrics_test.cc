// Metrics registry: instrument semantics, create-or-get handle stability,
// exposition formats, and (under TSan) registration racing lock-free
// recording. Concurrent recording into one histogram handle is covered by
// LatencyHistogramTest.ConcurrentRecordingLosesNothing.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace payless::obs {
namespace {

TEST(ObsMetricsTest, CounterAddsAndReads) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(ObsMetricsTest, GaugeSetsAndAdds) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 4);
  gauge.Set(100);
  EXPECT_EQ(gauge.value(), 100);
}

TEST(ObsMetricsTest, RegistryReturnsStableSharedHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total");
  Counter* b = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);  // create-or-get: one instrument per name
  a->Add(3);
  EXPECT_EQ(b->value(), 3);

  LatencyHistogram* h1 = registry.GetLatencyHistogram("latency");
  LatencyHistogram* h2 = registry.GetLatencyHistogram("latency");
  EXPECT_EQ(h1, h2);

  EXPECT_NE(static_cast<void*>(registry.GetGauge("requests_total")),
            static_cast<void*>(a));  // namespaces are per-kind
}

TEST(ObsMetricsTest, JsonExpositionContainsAllInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("calls_total")->Add(5);
  registry.GetGauge("inflight")->Set(2);
  registry.GetLatencyHistogram("latency_us")->Record(50);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"calls_total\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inflight\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\":{\"latency_us\":{\"count\":1,"
                      "\"sum\":50,\"p50\":50"),
            std::string::npos)
      << json;
}

TEST(ObsMetricsTest, PrometheusExpositionUsesCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("calls_total")->Add(5);
  LatencyHistogram* hist = registry.GetLatencyHistogram("latency_us");
  hist->Record(5);
  hist->Record(20);
  hist->Record(25);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE calls_total counter\ncalls_total 5"),
            std::string::npos)
      << text;
  // A histogram renders as a summary. Each quantile is read off the
  // cumulative bucket counts: the 0.5 rank (2 of 3) lands on 20, the
  // higher ranks on the top value. Values below 32 decode exactly.
  EXPECT_NE(text.find("# TYPE latency_us summary"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us{quantile=\"0.5\"} 20"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us{quantile=\"0.99\"} 25"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_sum 50"), std::string::npos) << text;
  EXPECT_EQ(text.find("_bucket"), std::string::npos) << text;
}

// Registration racing recording: half the threads Get instruments (mutex
// path), half record through pre-resolved handles (lock-free path).
TEST(ObsConcurrencyTest, RegistrationRacesRecording) {
  constexpr int kIters = 2'000;
  MetricsRegistry registry;
  Counter* shared = registry.GetCounter("shared_total");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          registry.GetCounter("c" + std::to_string(i % 16))->Add();
        } else {
          shared->Add();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(shared->value(), 2 * kIters);
  int64_t spread = 0;
  for (int i = 0; i < 16; ++i) {
    spread += registry.GetCounter("c" + std::to_string(i))->value();
  }
  EXPECT_EQ(spread, 2 * kIters);
}

}  // namespace
}  // namespace payless::obs
