// Thread-safe metrics registry: counters, gauges and log-scale histograms
// (obs/latency.h) with handle-based hot-path recording.
//
// Registration (name -> instrument) takes a mutex once; the returned
// handle is a stable pointer whose Record path is a handful of relaxed
// atomic operations, so instrumented hot paths (one histogram observation
// per query, one counter bump per market call) pay nanoseconds, not locks.
// Exposition walks the registry under the mutex and renders either JSON or
// the Prometheus text format, both cheap enough to serve from an admin
// endpoint.
//
// Every name the system registers is listed, with the invariant that pins
// its value, in tests/metric_contract_test.cc; that test fails on a name it
// does not know, so a new metric lands together with its invariant.
#ifndef PAYLESS_OBS_METRICS_H_
#define PAYLESS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/latency.h"

namespace payless::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Instantaneous value. Clients sharing one registry move it by deltas
/// (Add), so their contributions sum; a Set would overwrite the others'.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Name -> instrument registry. GetX is create-or-get: the first caller
/// defines the instrument, later callers share the same handle. Handles are
/// stable for the registry's lifetime and never invalidated.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Log-scale HDR histogram, the one distribution instrument: latencies,
  /// and any other non-negative integer distribution (q-errors x100).
  LatencyHistogram* GetLatencyHistogram(const std::string& name);

  /// {"counters": {name: value}, "gauges": {...}, "histograms": {name:
  /// {"count": c, "sum": s, "p50": ..., "p95": ..., "p99": ..., "p999":
  /// ...}}}
  std::string ToJson() const;

  /// Prometheus text exposition format v0.0.4: counters and gauges as
  /// `name value`, histograms as summaries (quantiles plus _sum/_count).
  std::string ToPrometheusText() const;

  /// Lifetime count of name->handle lookups (each GetX call; every one
  /// takes the registry mutex). Hot paths must pre-resolve handles at
  /// construction, so this count is REQUIRED to stay flat while queries are
  /// being served — the steady-state hot-path test asserts exactly that.
  int64_t lookup_count() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<int64_t> lookups_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_METRICS_H_
