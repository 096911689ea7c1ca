// Latency observability: a log-scale high-dynamic-range histogram with
// exact-decodable buckets, the per-query stage decomposition, and
// per-endpoint latency SLOs with burn-rate extraction.
//
// LatencyHistogram follows the registry's handle discipline: registration
// (GetLatencyHistogram) takes the registry mutex once, the returned handle
// records with two relaxed atomic adds plus one relaxed bucket add — no
// lock, no allocation — so per-attempt market RTTs and per-stage query
// timings can be recorded on the hot path. Buckets are base-2
// sub-logarithmic (32 sub-buckets per octave), which makes every bucket's
// [low, high] range exactly decodable from its index and bounds the
// relative quantile error at 2^-5 ~ 3.1%.
#ifndef PAYLESS_OBS_LATENCY_H_
#define PAYLESS_OBS_LATENCY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace payless::obs {

/// Log-scale HDR histogram over non-negative microsecond values.
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits sub-buckets per power of two.
  static constexpr int kSubBits = 5;
  static constexpr int kSubCount = 1 << kSubBits;  // 32
  /// Values at or above 2^kMaxBits micros (~12.7 days) clamp to the top
  /// bucket.
  static constexpr int kMaxBits = 40;
  static constexpr int kNumBuckets = kSubCount * (kMaxBits - kSubBits + 1);

  LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Lock-free: one bucket add plus count/sum adds, all relaxed.
  void Record(int64_t micros);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Upper bound of the bucket holding the q-quantile observation
  /// (0 < q <= 1); 0 when empty. Error is bounded by the bucket width,
  /// i.e. a relative 2^-kSubBits.
  int64_t ValueAtQuantile(double q) const;

  int64_t bucket_count(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Exact bucket decode: values in [BucketLow(i), BucketHigh(i)] map to
  /// bucket i and nothing else does. Values below kSubCount*2 are exact
  /// (width-1 buckets).
  static int BucketIndex(int64_t micros);
  static int64_t BucketLow(int index);
  static int64_t BucketHigh(int index);

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
};

/// Where a query's wall-clock goes. The first kNumWallStages entries
/// partition the end-to-end wall time (their sum must land within a few
/// percent of latency_us — bench_latency gates exactly that); the trailing
/// entries are overlapping detail (per-attempt RTTs overlap under fan-out,
/// admission waits overlap with sibling fetches) and are excluded from the
/// partition sum.
enum QueryStage : int {
  kStageParsePlan = 0,    // parse + bind + optimize + admission + executor
                          // set-up (minus the cache probe)
  kStagePlanCacheProbe,   // plan-template cache lookup
  kStageFetch,            // market fetch wall time (scheduler + RTT + merge
                          // of pages), per access, summed
  kStageLocalEval,        // residual predicate / projection evaluation
  kStageMerge,            // join maintenance between accesses
  // -- overlapping detail below; not part of the wall partition --
  kStageAdmissionWait,    // scheduler queue wait before a call's first try
  kStageMarketRtt,        // per-attempt market round trip, all attempts
  kStageBackoffWait,      // retry backoff sleeps
  kNumQueryStages
};

/// Stages 0..kNumWallStages-1 partition the end-to-end wall clock.
constexpr int kNumWallStages = static_cast<int>(kStageMerge) + 1;

const char* QueryStageName(int stage);

/// Per-query stage accumulator. Lives on the querying thread's stack; a
/// pointer rides in CallObs so the scheduler and connector can attribute
/// waits and RTTs to the query that caused them. Atomic because fan-out
/// executes a query's calls on many threads at once.
class QueryStageAccumulator {
 public:
  QueryStageAccumulator() {
    for (auto& m : micros_) m.store(0, std::memory_order_relaxed);
  }
  void Add(int stage, int64_t micros) {
    if (stage < 0 || stage >= kNumQueryStages || micros <= 0) return;
    micros_[stage].fetch_add(micros, std::memory_order_relaxed);
  }
  int64_t micros(int stage) const {
    return micros_[stage].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, kNumQueryStages> micros_;
};

/// A latency objective over a rotating window: "objective of requests
/// complete within target_micros, judged over window_micros". BurnRate is
/// the SRE burn rate: observed breach fraction divided by the error budget
/// (1 - objective); 1.0 means the budget is being consumed exactly at the
/// sustainable rate, >1 means the endpoint is burning ahead of it.
class LatencySlo {
 public:
  struct Options {
    int64_t target_micros = 50'000;
    double objective = 0.99;
    int64_t window_micros = 60'000'000;
  };

  explicit LatencySlo(const Options& options);
  LatencySlo(const LatencySlo&) = delete;
  LatencySlo& operator=(const LatencySlo&) = delete;

  /// Lock-free; rotates the window lazily via CAS on the window start.
  void Record(int64_t latency_micros);

  /// Burn rate over the active window (falls back to the previous window
  /// while the active one is empty); 0 when no data.
  double BurnRate() const;

  int64_t target_micros() const { return options_.target_micros; }
  double objective() const { return options_.objective; }
  int64_t window_micros() const { return options_.window_micros; }
  int64_t window_total() const;
  int64_t window_breaches() const;

 private:
  struct Window {
    std::atomic<int64_t> total{0};
    std::atomic<int64_t> breaches{0};
  };

  /// Rotates if the active window has expired; returns the active index.
  int ActiveIndex(int64_t now_micros);

  Options options_;
  std::atomic<int64_t> window_start_micros_;
  std::atomic<int> current_{0};
  Window windows_[2];
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_LATENCY_H_
