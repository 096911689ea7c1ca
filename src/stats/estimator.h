// Cardinality estimation for PayLess's cost-based optimizer.
//
// Data markets publish only "basic statistics" — attribute domains and table
// cardinality (§2.1) — so the optimizer starts from the textbook uniform
// assumption (§4.3) and *learns*: every REST call's true result size is fed
// back (Fig. 3, step 5.4), progressively refining a multidimensional
// feedback histogram. The paper uses ISOMER [44]; we implement an
// STHoles/ISOMER-style structure — buckets split along query-feedback
// boundaries, counts reconciled to the observed cardinalities — with
// one-step proportional fitting in place of ISOMER's full maximum-entropy
// iterative scaling (see DESIGN.md, substitutions).
#ifndef PAYLESS_STATS_ESTIMATOR_H_
#define PAYLESS_STATS_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/binio.h"
#include "common/geometry.h"

namespace payless::stats {

/// Introspection snapshot of one table's estimator — what EXPLAIN reports
/// about statistics maturity.
struct EstimatorInfo {
  size_t buckets = 0;     // histogram buckets (1 for uniform estimators)
  size_t feedbacks = 0;   // feedback observations absorbed so far
  double total_count = 0; // current believed table cardinality
};

/// Row-count estimation over a table's constrainable-attribute space.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Expected number of rows whose constrainable attributes fall in
  /// `region`. Never negative.
  virtual double EstimateRows(const Box& region) const = 0;

  /// Records that `region` was observed to contain exactly `actual_rows`.
  /// Returns a box that contains every region whose estimate this call may
  /// have changed; an empty box when it changed none.
  virtual Box Feedback(const Box& region, int64_t actual_rows) = 0;

  /// Structure snapshot for observability surfaces.
  virtual EstimatorInfo Info() const = 0;

  /// Appends this estimator's full learned state (without a kind tag —
  /// SaveEstimator frames it) so a restart resumes learning exactly where
  /// the process died instead of falling back to the uniform cold start.
  virtual void SaveState(common::BinWriter& w) const = 0;
};

/// Kind-tagged estimator state: one byte identifying the concrete class,
/// then its SaveState bytes. LoadEstimator returns nullptr on any decode
/// failure (unknown tag, truncated state) and for state whose region, or
/// any of whose buckets, does not have `dims` dimensions.
void SaveEstimator(const Estimator& estimator, std::string* out);
std::unique_ptr<Estimator> LoadEstimator(common::BinReader& r, size_t dims);

/// The cold-start estimator: published cardinality spread uniformly over the
/// domain (the paper's "basic textbook methods", §4.3).
class UniformEstimator : public Estimator {
 public:
  UniformEstimator(Box full_region, int64_t cardinality);

  double EstimateRows(const Box& region) const override;

  /// Only whole-table feedback is usable under uniformity: it recalibrates
  /// the total count. Sub-region feedback is ignored (nothing changes).
  Box Feedback(const Box& region, int64_t actual_rows) override;

  EstimatorInfo Info() const override {
    return EstimatorInfo{1, num_feedbacks_, cardinality_};
  }

  void SaveState(common::BinWriter& w) const override;
  static std::unique_ptr<UniformEstimator> Load(common::BinReader& r,
                                                size_t dims);

 private:
  UniformEstimator() = default;  // Load fills every field

  Box full_region_;
  double cardinality_ = 0.0;
  size_t num_feedbacks_ = 0;
};

/// Feedback-refined multidimensional histogram (the ISOMER role).
///
/// Invariant: buckets are disjoint boxes covering exactly the full region;
/// each carries a non-negative expected row count, assumed uniform within
/// the bucket. Feedback splits every bucket straddling the fed-back region
/// along the region's faces, then rescales the inside buckets so their sum
/// matches the observation. Estimates for regions aligned with past
/// feedback are therefore exact; unaligned regions interpolate uniformly
/// within buckets.
class FeedbackHistogram : public Estimator {
 public:
  /// `max_buckets` bounds memory: once reached, feedback stops splitting
  /// and reconciles counts by proportional overlap instead. One feedback
  /// never leaves more than 2 * `max_buckets` buckets: the splits that
  /// would pass that bound are skipped, and those buckets stay whole.
  FeedbackHistogram(Box full_region, int64_t initial_cardinality,
                    size_t max_buckets = 4096);

  double EstimateRows(const Box& region) const override;
  /// Returns the fed-back region when every straddling bucket was split, so
  /// only buckets inside it were rescaled. Otherwise (at capacity, or when
  /// the split bound skipped a split) a rescaled bucket extends past the
  /// region, and the full region is returned.
  Box Feedback(const Box& region, int64_t actual_rows) override;

  size_t num_buckets() const { return buckets_.counts.size(); }
  size_t num_feedbacks() const { return num_feedbacks_; }
  double total_count() const;

  EstimatorInfo Info() const override {
    return EstimatorInfo{num_buckets(), num_feedbacks_, total_count()};
  }

  void SaveState(common::BinWriter& w) const override;
  static std::unique_ptr<FeedbackHistogram> Load(common::BinReader& r,
                                                 size_t dims);

 private:
  FeedbackHistogram() = default;  // Load fills every field

  /// The buckets in flat arrays, so an estimate scans them without building
  /// a Box each: bucket i's intervals are bounds[i * d, (i + 1) * d) for the
  /// region's d dimensions, its expected rows counts[i] and its lattice
  /// point count (as a double) volumes[i].
  struct Buckets {
    std::vector<Interval> bounds;
    std::vector<double> counts;
    std::vector<double> volumes;

    void Add(const Interval* intervals, size_t num_dims, double count,
             double volume);
  };

  const Interval* BoundsOf(size_t bucket) const {
    return buckets_.bounds.data() + bucket * full_region_.num_dims();
  }
  Box BucketBox(size_t bucket) const;

  /// Expected rows of `bucket` falling inside `region` (clipped to the full
  /// region) under intra-bucket uniformity.
  double OverlapCount(size_t bucket, const Box& region) const;

  Box full_region_;
  size_t max_buckets_ = 0;
  Buckets buckets_;
  size_t num_feedbacks_ = 0;
};

/// Which estimator the registry instantiates per table.
enum class StatsKind {
  kUniform,            // never learns (cold start forever)
  kFeedbackHistogram,  // multidimensional, the ISOMER role (default)
};

/// Per-table estimator registry: the statistics block of Fig. 3. Every
/// catalog table is seeded from its published basic statistics (the
/// uniform cold start of §4.3); learning can be disabled to study the
/// cold-start optimizer.
///
/// Thread-safe: the table set is fixed at construction, so a lookup takes
/// no lock, and each table's estimator is plain mutable data behind one
/// reader-writer lock. EstimateRows (the optimizer's hot read) and the
/// other reads take it shared; Feedback and RestoreTable take it
/// exclusively and change the estimator in place. Writers to different
/// tables never contend.
class StatsRegistry {
 public:
  /// kUniform never learns: it studies the cold-start optimizer.
  explicit StatsRegistry(const catalog::Catalog& catalog,
                         StatsKind kind = StatsKind::kFeedbackHistogram);

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// 0 for a table outside the catalog.
  double EstimateRows(const std::string& table, const Box& region) const;

  /// Applies one observation to `table`'s estimator and returns the box
  /// whose estimates it may have changed (Estimator::Feedback). `table`
  /// must be in the catalog.
  Box Feedback(const std::string& table, const Box& region,
               int64_t actual_rows);

  size_t TotalFeedbacks() const;

  /// Introspection snapshot for `table` (zeroed when unknown).
  EstimatorInfo Info(const std::string& table) const;

  StatsKind kind() const { return kind_; }

  /// Names of every table, sorted (the durability snapshot iterates them).
  std::vector<std::string> TableNames() const;

  /// Serializes `table`'s current estimator (kind-tagged) into `out`.
  /// False when the table is unknown.
  bool SaveTable(const std::string& table, std::string* out) const;

  /// Replaces `table`'s estimator with the deserialized `blob` state (the
  /// recovery path; a blob for a table dropped from the catalog is
  /// skipped). False on unknown table or decode failure, which includes a
  /// blob over another number of dimensions than the table's region (the
  /// catalog changed between runs): the table keeps its estimator.
  bool RestoreTable(const std::string& table, const std::string& blob);

 private:
  /// One table's estimator and the lock that guards it.
  struct Cell {
    size_t dims = 0;  // of the table's full region
    mutable std::shared_mutex mutex;
    std::unique_ptr<Estimator> estimator;  // guarded by `mutex`
  };

  StatsKind kind_;
  std::map<std::string, Cell> cells_;  // built once, never resized
};

}  // namespace payless::stats

#endif  // PAYLESS_STATS_ESTIMATOR_H_
