#include "obs/latency.h"

#include <cmath>

namespace payless::obs {

namespace {

/// Position of the highest set bit (floor(log2(v))) for v >= 1.
inline int HighBit(int64_t v) {
  return 63 - __builtin_clzll(static_cast<uint64_t>(v));
}

}  // namespace

LatencyHistogram::LatencyHistogram() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int LatencyHistogram::BucketIndex(int64_t micros) {
  if (micros < kSubCount) return micros < 0 ? 0 : static_cast<int>(micros);
  if (micros >= (int64_t{1} << kMaxBits)) return kNumBuckets - 1;
  const int m = HighBit(micros);  // in [kSubBits, kMaxBits - 1]
  const int sub =
      static_cast<int>((micros >> (m - kSubBits)) - kSubCount);  // [0, 31]
  return kSubCount + (m - kSubBits) * kSubCount + sub;
}

int64_t LatencyHistogram::BucketLow(int index) {
  if (index < kSubCount) return index;
  const int b = index - kSubCount;
  const int scale = b / kSubCount;  // m - kSubBits
  const int sub = b % kSubCount;
  return static_cast<int64_t>(kSubCount + sub) << scale;
}

int64_t LatencyHistogram::BucketHigh(int index) {
  if (index < kSubCount) return index;
  const int scale = (index - kSubCount) / kSubCount;
  return BucketLow(index) + (int64_t{1} << scale) - 1;
}

void LatencyHistogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
}

int64_t LatencyHistogram::ValueAtQuantile(double q) const {
  const int64_t total = count();
  if (total <= 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target observation, 1-based: the smallest rank covering a
  // q fraction of the data (q=0.5 over 10 obs -> rank 5, q=0.999 -> 10).
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) return BucketHigh(i);
  }
  return BucketHigh(kNumBuckets - 1);
}

const char* QueryStageName(int stage) {
  switch (stage) {
    case kStageParsePlan:
      return "parse_plan";
    case kStagePlanCacheProbe:
      return "plan_cache_probe";
    case kStageFetch:
      return "fetch";
    case kStageLocalEval:
      return "local_eval";
    case kStageMerge:
      return "merge";
    case kStageAdmissionWait:
      return "sched_admission";
    case kStageMarketRtt:
      return "market_rtt";
    case kStageBackoffWait:
      return "retry_backoff";
  }
  return "unknown";
}

}  // namespace payless::obs
