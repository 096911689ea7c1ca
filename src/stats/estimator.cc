#include "stats/estimator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <shared_mutex>

namespace payless::stats {

namespace {

/// Volume as a double; boxes here are clipped to real attribute domains so
/// saturation never triggers in practice, but stay safe anyway.
double Vol(const Box& box) { return static_cast<double>(box.Volume()); }

/// The cell of `table` in a cell map built from the catalog; nullptr for a
/// table outside it.
template <typename Cells>
auto* CellOf(Cells& cells, const std::string& table) {
  const auto it = cells.find(table);
  return it == cells.end() ? nullptr : &it->second;
}

/// The Feedback result that changed no estimate.
Box Unchanged(size_t dims) {
  return Box(std::vector<Interval>(std::max<size_t>(dims, 1),
                                   Interval::Empty()));
}

}  // namespace

UniformEstimator::UniformEstimator(Box full_region, int64_t cardinality)
    : full_region_(std::move(full_region)),
      cardinality_(static_cast<double>(cardinality)) {}

double UniformEstimator::EstimateRows(const Box& region) const {
  const Box clipped = full_region_.Intersect(region);
  if (clipped.empty()) return 0.0;
  const double total = Vol(full_region_);
  if (total <= 0.0) return cardinality_;
  return cardinality_ * (Vol(clipped) / total);
}

Box UniformEstimator::Feedback(const Box& region, int64_t actual_rows) {
  ++num_feedbacks_;
  if (!(region == full_region_)) return Unchanged(full_region_.num_dims());
  cardinality_ = static_cast<double>(actual_rows);
  return full_region_;
}

FeedbackHistogram::FeedbackHistogram(Box full_region,
                                     int64_t initial_cardinality,
                                     size_t max_buckets)
    : full_region_(std::move(full_region)), max_buckets_(max_buckets) {
  buckets_.push_back(
      Bucket{full_region_, static_cast<double>(initial_cardinality)});
}

double FeedbackHistogram::OverlapCount(const Bucket& bucket,
                                       const Box& region) {
  const Box overlap = bucket.box.Intersect(region);
  if (overlap.empty()) return 0.0;
  const double bucket_volume = Vol(bucket.box);
  if (bucket_volume <= 0.0) return 0.0;
  return bucket.count * (Vol(overlap) / bucket_volume);
}

double FeedbackHistogram::EstimateRows(const Box& region) const {
  const Box clipped = full_region_.Intersect(region);
  if (clipped.empty()) return 0.0;
  double total = 0.0;
  for (const Bucket& bucket : buckets_) {
    total += OverlapCount(bucket, clipped);
  }
  return total;
}

Box FeedbackHistogram::Feedback(const Box& region, int64_t actual_rows) {
  const Box target = full_region_.Intersect(region);
  if (target.empty()) return target;
  ++num_feedbacks_;

  // Phase 1: split buckets that straddle the target so that afterwards every
  // bucket is either inside or outside it (skipped at capacity). A split
  // that would leave more than 2 * max_buckets_ buckets, counting the ones
  // not visited yet, is skipped: that bucket and every later one stay whole.
  bool all_split = buckets_.size() < max_buckets_;
  if (all_split) {
    std::vector<Bucket> next;
    next.reserve(buckets_.size() + 4);
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
      // Distribute the bucket's count over the fragments by volume share
      // (uniformity within the bucket).
      Bucket in_piece{inside, bucket.count * (Vol(inside) / volume)};
      next.push_back(std::move(in_piece));
      for (Box& piece : outside) {
        const double share = bucket.count * (Vol(piece) / volume);
        next.push_back(Bucket{std::move(piece), share});
      }
    }
    buckets_ = std::move(next);
  }

  // Phase 2: reconcile — scale the mass inside the target to the observed
  // count (one-step proportional fitting in place of ISOMER's iterative
  // max-entropy scaling). Buckets partially overlapping (possible only at
  // capacity) move only their inside share.
  double inside_mass = 0.0;
  for (const Bucket& bucket : buckets_) {
    inside_mass += OverlapCount(bucket, target);
  }
  // A bucket left straddling the target spreads its new count past it.
  const Box& changed = all_split ? target : full_region_;
  const double actual = static_cast<double>(actual_rows);
  if (inside_mass <= 1e-9) {
    if (actual <= 0.0) return changed;
    // Nothing to scale: spread the observed rows over the inside volume.
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

double FeedbackHistogram::total_count() const {
  double total = 0.0;
  for (const Bucket& bucket : buckets_) total += bucket.count;
  return total;
}

StatsRegistry::StatsRegistry(const catalog::Catalog& catalog, StatsKind kind)
    : kind_(kind) {
  for (const std::string& name : catalog.TableNames()) {
    const catalog::TableDef& def = *catalog.FindTable(name);
    const Box full = def.FullRegion();
    std::unique_ptr<Estimator>& estimator = cells_[name].estimator;
    switch (kind_) {
      case StatsKind::kUniform:
        estimator = std::make_unique<UniformEstimator>(full, def.cardinality);
        break;
      case StatsKind::kFeedbackHistogram:
        estimator = std::make_unique<FeedbackHistogram>(full, def.cardinality);
        break;
    }
  }
}

double StatsRegistry::EstimateRows(const std::string& table,
                                   const Box& region) const {
  const auto* cell = CellOf(cells_, table);
  if (cell == nullptr) return 0.0;
  std::shared_lock<std::shared_mutex> lock(cell->mutex);
  return cell->estimator->EstimateRows(region);
}

Box StatsRegistry::Feedback(const std::string& table, const Box& region,
                            int64_t actual_rows) {
  auto* cell = CellOf(cells_, table);
  assert(cell != nullptr && "feedback for a table outside the catalog");
  std::unique_lock<std::shared_mutex> lock(cell->mutex);
  return cell->estimator->Feedback(region, actual_rows);
}

size_t StatsRegistry::TotalFeedbacks() const {
  size_t total = 0;
  for (const auto& [name, cell] : cells_) {
    std::shared_lock<std::shared_mutex> lock(cell.mutex);
    const auto* hist =
        dynamic_cast<const FeedbackHistogram*>(cell.estimator.get());
    if (hist != nullptr) total += hist->num_feedbacks();
  }
  return total;
}

// ---- Serialization (durability snapshots).

namespace {
// Kind tags framing estimator state on disk; append-only. Tag 3 framed the
// retired per-dimension independent histograms: it stays reserved and must
// never be reused, so a snapshot that still carries it fails to decode
// (and recovery keeps that table's catalog-seeded estimator) instead of
// loading as some other estimator.
constexpr uint8_t kUniformTag = 1;
constexpr uint8_t kFeedbackHistogramTag = 2;
}  // namespace

void UniformEstimator::SaveState(common::BinWriter& w) const {
  common::WriteBox(w, full_region_);
  w.F64(cardinality_);
  w.U64(num_feedbacks_);
}

std::unique_ptr<UniformEstimator> UniformEstimator::Load(
    common::BinReader& r) {
  std::unique_ptr<UniformEstimator> est(new UniformEstimator());
  uint64_t feedbacks = 0;
  if (!common::ReadBox(r, &est->full_region_) || !r.F64(&est->cardinality_) ||
      !r.U64(&feedbacks)) {
    return nullptr;
  }
  est->num_feedbacks_ = static_cast<size_t>(feedbacks);
  return est;
}

void FeedbackHistogram::SaveState(common::BinWriter& w) const {
  common::WriteBox(w, full_region_);
  w.U64(max_buckets_);
  w.U64(num_feedbacks_);
  w.U32(static_cast<uint32_t>(buckets_.size()));
  for (const Bucket& bucket : buckets_) {
    common::WriteBox(w, bucket.box);
    w.F64(bucket.count);
  }
}

std::unique_ptr<FeedbackHistogram> FeedbackHistogram::Load(
    common::BinReader& r) {
  std::unique_ptr<FeedbackHistogram> est(new FeedbackHistogram());
  uint64_t max_buckets = 0, feedbacks = 0;
  uint32_t num_buckets = 0;
  if (!common::ReadBox(r, &est->full_region_) || !r.U64(&max_buckets) ||
      !r.U64(&feedbacks) || !r.U32(&num_buckets)) {
    return nullptr;
  }
  est->max_buckets_ = static_cast<size_t>(max_buckets);
  est->num_feedbacks_ = static_cast<size_t>(feedbacks);
  est->buckets_.reserve(num_buckets);
  for (uint32_t i = 0; i < num_buckets; ++i) {
    Bucket bucket;
    if (!common::ReadBox(r, &bucket.box) || !r.F64(&bucket.count)) {
      return nullptr;
    }
    est->buckets_.push_back(std::move(bucket));
  }
  return est;
}

void SaveEstimator(const Estimator& estimator, std::string* out) {
  common::BinWriter w(out);
  if (dynamic_cast<const UniformEstimator*>(&estimator) != nullptr) {
    w.U8(kUniformTag);
  } else {
    assert(dynamic_cast<const FeedbackHistogram*>(&estimator) != nullptr);
    w.U8(kFeedbackHistogramTag);
  }
  estimator.SaveState(w);
}

std::unique_ptr<Estimator> LoadEstimator(common::BinReader& r) {
  uint8_t tag = 0;
  if (!r.U8(&tag)) return nullptr;
  switch (tag) {
    case kUniformTag:
      return UniformEstimator::Load(r);
    case kFeedbackHistogramTag:
      return FeedbackHistogram::Load(r);
    default:
      return nullptr;
  }
}

std::vector<std::string> StatsRegistry::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, cell] : cells_) names.push_back(name);
  return names;
}

bool StatsRegistry::SaveTable(const std::string& table,
                              std::string* out) const {
  const auto* cell = CellOf(cells_, table);
  if (cell == nullptr) return false;
  std::shared_lock<std::shared_mutex> lock(cell->mutex);
  SaveEstimator(*cell->estimator, out);
  return true;
}

bool StatsRegistry::RestoreTable(const std::string& table,
                                 const std::string& blob) {
  auto* cell = CellOf(cells_, table);
  if (cell == nullptr) return false;
  common::BinReader r(blob);
  std::unique_ptr<Estimator> restored = LoadEstimator(r);
  if (restored == nullptr) return false;
  std::unique_lock<std::shared_mutex> lock(cell->mutex);
  cell->estimator = std::move(restored);
  return true;
}

EstimatorInfo StatsRegistry::Info(const std::string& table) const {
  const auto* cell = CellOf(cells_, table);
  if (cell == nullptr) return EstimatorInfo{};
  std::shared_lock<std::shared_mutex> lock(cell->mutex);
  return cell->estimator->Info();
}

}  // namespace payless::stats
