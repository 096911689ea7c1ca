// A reference feedback histogram for differential tests: each bucket is its
// own Box with a count, and every estimate or rescale intersects the query
// with each bucket's Box. It is the layout stats::FeedbackHistogram had
// before its buckets moved into flat arrays, kept to check that the flat
// layout estimates, splits, rescales and saves bit for bit alike.
#ifndef PAYLESS_TESTS_NAIVE_HISTOGRAM_H_
#define PAYLESS_TESTS_NAIVE_HISTOGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/geometry.h"

namespace payless::naive {

class FeedbackHistogram {
 public:
  FeedbackHistogram(Box full_region, int64_t initial_cardinality,
                    size_t max_buckets = 4096)
      : full_region_(std::move(full_region)), max_buckets_(max_buckets) {
    buckets_.push_back(
        Bucket{full_region_, static_cast<double>(initial_cardinality)});
  }

  size_t num_buckets() const { return buckets_.size(); }

  double EstimateRows(const Box& region) const {
    const Box clipped = full_region_.Intersect(region);
    if (clipped.empty()) return 0.0;
    double total = 0.0;
    for (const Bucket& bucket : buckets_) {
      total += OverlapCount(bucket, clipped);
    }
    return total;
  }

  Box Feedback(const Box& region, int64_t actual_rows) {
    const Box target = full_region_.Intersect(region);
    if (target.empty()) return target;
    ++num_feedbacks_;

    // Split every bucket straddling the target, unless at capacity or past
    // the 2 * max_buckets_ bound (that bucket and every later one stay
    // whole).
    bool all_split = buckets_.size() < max_buckets_;
    if (all_split) {
      std::vector<Bucket> next;
      for (size_t i = 0; i < buckets_.size(); ++i) {
        const Bucket& bucket = buckets_[i];
        const Box inside = bucket.box.Intersect(target);
        if (!all_split || inside.empty() || inside == bucket.box) {
          next.push_back(bucket);
          continue;
        }
        std::vector<Box> outside = SubtractBox(bucket.box, target);
        const size_t unvisited = buckets_.size() - i - 1;
        if (next.size() + 1 + outside.size() + unvisited > max_buckets_ * 2) {
          all_split = false;
          next.push_back(bucket);
          continue;
        }
        const double volume = Vol(bucket.box);
        next.push_back(Bucket{inside, bucket.count * (Vol(inside) / volume)});
        for (Box& piece : outside) {
          const double share = bucket.count * (Vol(piece) / volume);
          next.push_back(Bucket{std::move(piece), share});
        }
      }
      buckets_ = std::move(next);
    }

    // Scale the mass inside the target to the observation.
    double inside_mass = 0.0;
    for (const Bucket& bucket : buckets_) {
      inside_mass += OverlapCount(bucket, target);
    }
    const Box& changed = all_split ? target : full_region_;
    const double actual = static_cast<double>(actual_rows);
    if (inside_mass <= 1e-9) {
      if (actual <= 0.0) return changed;
      const double target_volume = Vol(target);
      for (Bucket& bucket : buckets_) {
        const Box overlap = bucket.box.Intersect(target);
        if (overlap.empty()) continue;
        bucket.count += actual * (Vol(overlap) / target_volume);
      }
      return changed;
    }
    const double scale = actual / inside_mass;
    for (Bucket& bucket : buckets_) {
      const double inside = OverlapCount(bucket, target);
      if (inside <= 0.0) continue;
      bucket.count += inside * (scale - 1.0);
      if (bucket.count < 0.0) bucket.count = 0.0;
    }
    return changed;
  }

  /// The same bytes as stats::FeedbackHistogram::SaveState.
  void SaveState(common::BinWriter& w) const {
    common::WriteBox(w, full_region_);
    w.U64(max_buckets_);
    w.U64(num_feedbacks_);
    w.U32(static_cast<uint32_t>(buckets_.size()));
    for (const Bucket& bucket : buckets_) {
      common::WriteBox(w, bucket.box);
      w.F64(bucket.count);
    }
  }

 private:
  struct Bucket {
    Box box;
    double count = 0.0;
  };

  static double Vol(const Box& box) {
    return static_cast<double>(box.Volume());
  }

  static double OverlapCount(const Bucket& bucket, const Box& region) {
    const Box overlap = bucket.box.Intersect(region);
    if (overlap.empty()) return 0.0;
    const double bucket_volume = Vol(bucket.box);
    if (bucket_volume <= 0.0) return 0.0;
    return bucket.count * (Vol(overlap) / bucket_volume);
  }

  Box full_region_;
  size_t max_buckets_ = 0;
  std::vector<Bucket> buckets_;
  size_t num_feedbacks_ = 0;
};

}  // namespace payless::naive

#endif  // PAYLESS_TESTS_NAIVE_HISTOGRAM_H_
