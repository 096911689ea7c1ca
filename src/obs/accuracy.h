// Estimator-accuracy tracking: the optimizer-side telemetry of Fig. 3's
// feedback loop. Every market call already reports its true result size
// back to the statistics block; this tracker taps the same point and
// records the (estimated, actual) pair as a q-error — the standard
// multiplicative estimation-error metric,
//
//   qerror(e, a) = max(max(e,1)/max(a,1), max(a,1)/max(e,1))  >= 1,
//
// into a per-table histogram of a metrics registry. A q-error of 1 is a
// perfect estimate; the paper's cold-start uniform assumption can be off
// by orders of magnitude until feedback refines the histogram (§4.3).
//
// The tracker only records. The drift test of the learning loop (Fig. 3
// step 5.4) lives in the client's harvest path (PayLess::AbsorbHarvest):
// when an estimate misses by more than the configured q-error threshold,
// the client drops the cached plans priced over the region that feedback
// changed and counts a drift tick here, whether or not q-errors are
// recorded, so switching tracking off moves no bill. The drift epoch lives
// only in memory: a restarted client starts at 0 and its durability replay
// ticks it like any harvest, so payless_stats_drift_ticks_total counts
// every tick.
#ifndef PAYLESS_OBS_ACCURACY_H_
#define PAYLESS_OBS_ACCURACY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace payless::obs {

/// Per-table accuracy aggregate (all values over the tracker's lifetime).
struct AccuracySnapshot {
  uint64_t samples = 0;
  double last_qerror = 0.0;
  double max_qerror = 0.0;
  double sum_qerror = 0.0;  // mean = sum / samples

  double mean_qerror() const {
    return samples == 0 ? 0.0 : sum_qerror / static_cast<double>(samples);
  }
};

/// Thread-safe (estimated, actual) recorder with metric export and a drift
/// tick counter.
class AccuracyTracker {
 public:
  /// `metrics` may be null (tracking still works; nothing is exported).
  explicit AccuracyTracker(MetricsRegistry* metrics);

  AccuracyTracker(const AccuracyTracker&) = delete;
  AccuracyTracker& operator=(const AccuracyTracker&) = delete;

  /// The q-error of estimating `estimated` rows when `actual` arrived.
  /// Symmetric, >= 1; both sides are clamped to 1 so empty results do not
  /// divide by zero.
  static double QError(double estimated, double actual);

  /// Records one pair for `table` into its q-error histogram.
  void Record(const std::string& table, double estimated, double actual);

  /// Counts one drift tick.
  void CountDriftTick();

  /// Resolves `table`'s metric handles now, off the query path. Callers
  /// that know their table set up front (PayLess registers every catalog
  /// table at construction) use this so steady-state Record calls never
  /// touch the metrics registry's name map.
  void PrepareTable(const std::string& table);

  /// Monotonic drift tick count (CountDriftTick calls).
  uint64_t drift_epoch() const {
    return drift_epoch_.load(std::memory_order_acquire);
  }

  AccuracySnapshot Snapshot(const std::string& table) const;
  uint64_t total_samples() const {
    return total_samples_.load(std::memory_order_relaxed);
  }

  /// Metric-name-safe version of a table/dataset name ([a-zA-Z0-9_:] kept,
  /// everything else becomes '_').
  static std::string SanitizeMetricName(const std::string& name);

 private:
  struct PerTable {
    AccuracySnapshot snapshot;
    LatencyHistogram* qerror_hist = nullptr;  // x100 fixed-point
  };

  PerTable& Entry(const std::string& table);

  MetricsRegistry* metrics_;
  std::atomic<uint64_t> drift_epoch_{0};
  std::atomic<uint64_t> total_samples_{0};
  Counter* drift_ticks_ = nullptr;

  mutable std::mutex mutex_;
  std::map<std::string, PerTable> tables_;
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_ACCURACY_H_
