// Latency observability: a log-scale high-dynamic-range histogram with
// exact-decodable buckets, and the per-query stage decomposition.
//
// LatencyHistogram follows the registry's handle discipline: registration
// (GetLatencyHistogram) takes the registry mutex once, the returned handle
// records with two relaxed atomic adds plus one relaxed bucket add — no
// lock, no allocation — so per-attempt market RTTs and per-stage query
// timings can be recorded on the hot path. Buckets are base-2
// sub-logarithmic (32 sub-buckets per octave), which makes every bucket's
// [low, high] range exactly decodable from its index and bounds the
// relative quantile error at 2^-5 ~ 3.1%. It is the registry's only
// distribution instrument: non-latency distributions (the per-table
// q-errors, fixed-point x100) record into it too.
#ifndef PAYLESS_OBS_LATENCY_H_
#define PAYLESS_OBS_LATENCY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace payless::obs {

/// Log-scale HDR histogram over non-negative integers (microseconds, for
/// the latencies).
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
/// partition the end-to-end wall time (their sum never exceeds latency_us
/// and leaves only a small residue — StageDecompositionTest checks both);
/// the trailing entries are overlapping detail (per-attempt RTTs overlap
/// under fan-out, admission waits overlap with sibling fetches) and are
/// excluded from the partition sum.
enum QueryStage : int {
  kStageParsePlan = 0,    // parse + bind + optimize + admission + executor
                          // set-up (minus the cache probe)
  kStagePlanCacheProbe,   // plan-template cache lookup
  kStageFetch,            // market fetch wall time (scheduler + RTT + merge
                          // of pages), per access, summed
  kStageLocalEval,        // residual predicate / projection evaluation
  kStageMerge,            // join maintenance between accesses
  // -- overlapping detail below; not part of the wall partition --
  kStageAdmissionWait,    // scheduler queue wait: per batch, submission
                          // until its last call left the queue
  kStageMarketRtt,        // per-attempt market round trip, all attempts
  kStageBackoffWait,      // retry backoff sleeps
  kNumQueryStages
};

/// Stages 0..kNumWallStages-1 partition the end-to-end wall clock.
constexpr int kNumWallStages = static_cast<int>(kStageMerge) + 1;

const char* QueryStageName(int stage);

/// Per-query stage accumulator. Lives on the querying thread's stack; a
/// pointer rides in CallObs so the scheduler and connector can attribute
/// waits and RTTs to the query that caused them. Atomic, so any thread may
/// record into it.
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

}  // namespace payless::obs

#endif  // PAYLESS_OBS_LATENCY_H_
