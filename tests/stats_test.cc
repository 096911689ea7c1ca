#include "stats/estimator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bill_digest.h"
#include "common/binio.h"
#include "common/rng.h"
#include "market/rest_call.h"
#include "naive_histogram.h"
#include "workload/bundle.h"

namespace payless::stats {
namespace {

Box Grid2D(int64_t w, int64_t h) {
  return Box({Interval(0, w - 1), Interval(0, h - 1)});
}

/// Dataset "D" with one table "T": one free int64 column over
/// [0, domain_hi].
catalog::Catalog OneColumnCatalog(int64_t domain_hi, int64_t cardinality) {
  catalog::Catalog catalog;
  EXPECT_TRUE(catalog.RegisterDataset(catalog::DatasetDef{"D", 1.0, 100}).ok());
  catalog::TableDef def;
  def.name = "T";
  def.dataset = "D";
  def.columns = {catalog::ColumnDef::Free(
      "a", ValueType::kInt64, catalog::AttrDomain::Numeric(0, domain_hi))};
  def.cardinality = cardinality;
  EXPECT_TRUE(catalog.RegisterTable(def).ok());
  return catalog;
}

/// The bucket boxes of `hist`, read back from its saved state.
std::vector<Box> BucketBoxes(const FeedbackHistogram& hist) {
  std::string blob;
  common::BinWriter w(&blob);
  hist.SaveState(w);
  common::BinReader r(blob);
  Box full;
  uint64_t max_buckets = 0;
  uint64_t feedbacks = 0;
  uint32_t num_buckets = 0;
  EXPECT_TRUE(common::ReadBox(r, &full) && r.U64(&max_buckets) &&
              r.U64(&feedbacks) && r.U32(&num_buckets));
  std::vector<Box> boxes(num_buckets);
  for (Box& box : boxes) {
    double count = 0.0;
    EXPECT_TRUE(common::ReadBox(r, &box) && r.F64(&count));
  }
  return boxes;
}

TEST(UniformEstimatorTest, FullRegionReturnsCardinality) {
  UniformEstimator est(Grid2D(10, 10), 500);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Grid2D(10, 10)), 500.0);
}

TEST(UniformEstimatorTest, ProportionalToVolume) {
  UniformEstimator est(Grid2D(10, 10), 500);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(0, 4), Interval(0, 9)})),
                   250.0);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(0, 0), Interval(0, 0)})),
                   5.0);
}

TEST(UniformEstimatorTest, ClipsToDomain) {
  UniformEstimator est(Grid2D(10, 10), 100);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(5, 50), Interval(0, 9)})),
                   50.0);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(20, 30), Interval(0, 9)})),
                   0.0);
}

TEST(UniformEstimatorTest, OnlyWholeTableFeedbackRecalibrates) {
  UniformEstimator est(Grid2D(10, 10), 100);
  est.Feedback(Box({Interval(0, 4), Interval(0, 9)}), 90);  // ignored
  EXPECT_DOUBLE_EQ(est.EstimateRows(Grid2D(10, 10)), 100.0);
  est.Feedback(Grid2D(10, 10), 200);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Grid2D(10, 10)), 200.0);
}

TEST(FeedbackHistogramTest, StartsUniform) {
  FeedbackHistogram hist(Grid2D(10, 10), 100);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 4), Interval(0, 9)})),
                   50.0);
  EXPECT_EQ(hist.num_buckets(), 1u);
}

TEST(FeedbackHistogramTest, ExactAfterAlignedFeedback) {
  FeedbackHistogram hist(Grid2D(10, 10), 100);
  const Box region({Interval(0, 4), Interval(0, 9)});
  hist.Feedback(region, 80);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(region), 80.0);
  // Mass conservation is NOT imposed outside the region: the rest keeps its
  // prior estimate.
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(5, 9), Interval(0, 9)})),
                   50.0);
}

TEST(FeedbackHistogramTest, DisjointFeedbacksStayExact) {
  FeedbackHistogram hist(Grid2D(100, 1), 1000);
  hist.Feedback(Box({Interval(0, 24), Interval(0, 0)}), 10);
  hist.Feedback(Box({Interval(25, 49), Interval(0, 0)}), 700);
  hist.Feedback(Box({Interval(50, 99), Interval(0, 0)}), 40);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 24), Interval(0, 0)})),
                   10.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(25, 49), Interval(0, 0)})),
                   700.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(50, 99), Interval(0, 0)})),
                   40.0);
  EXPECT_NEAR(hist.total_count(), 750.0, 1e-6);
}

TEST(FeedbackHistogramTest, CorrelatedQuadrantFeedbacksStayExact) {
  // Rows only on the diagonal quadrants: no product of per-dimension
  // marginals can represent this, but the multidimensional buckets split
  // along each fed-back box and reproduce all four counts exactly.
  FeedbackHistogram hist(Grid2D(10, 10), 100);
  const Box q1({Interval(0, 4), Interval(0, 4)});
  const Box q2({Interval(5, 9), Interval(5, 9)});
  const Box off1({Interval(0, 4), Interval(5, 9)});
  const Box off2({Interval(5, 9), Interval(0, 4)});
  const std::vector<std::pair<Box, int64_t>> truth = {
      {q1, 50}, {q2, 50}, {off1, 0}, {off2, 0}};
  for (const auto& [box, count] : truth) hist.Feedback(box, count);
  for (const auto& [box, count] : truth) {
    EXPECT_NEAR(hist.EstimateRows(box), static_cast<double>(count), 1e-9);
  }
}

TEST(FeedbackHistogramTest, RefinementOverwritesCoarseFeedback) {
  FeedbackHistogram hist(Grid2D(100, 1), 1000);
  hist.Feedback(Box({Interval(0, 99), Interval(0, 0)}), 500);
  hist.Feedback(Box({Interval(0, 9), Interval(0, 0)}), 200);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 9), Interval(0, 0)})),
                   200.0);
  // The coarse region total is no longer 500 (the refinement added mass),
  // but the untouched part keeps its share: 500 * 90/100 = 450.
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(10, 99), Interval(0, 0)})),
                   450.0);
}

TEST(FeedbackHistogramTest, ZeroFeedbackZeroesRegion) {
  FeedbackHistogram hist(Grid2D(10, 1), 100);
  hist.Feedback(Box({Interval(0, 4), Interval(0, 0)}), 0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 4), Interval(0, 0)})),
                   0.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(5, 9), Interval(0, 0)})),
                   50.0);
}

TEST(FeedbackHistogramTest, FeedbackOnZeroMassRegionRedistributes) {
  FeedbackHistogram hist(Grid2D(10, 1), 100);
  hist.Feedback(Box({Interval(0, 4), Interval(0, 0)}), 0);
  hist.Feedback(Box({Interval(0, 1), Interval(0, 0)}), 30);
  EXPECT_NEAR(hist.EstimateRows(Box({Interval(0, 1), Interval(0, 0)})), 30.0,
              1e-6);
}

TEST(FeedbackHistogramTest, OutOfDomainFeedbackIgnored) {
  FeedbackHistogram hist(Grid2D(10, 1), 100);
  hist.Feedback(Box({Interval(20, 30), Interval(0, 0)}), 999);
  EXPECT_DOUBLE_EQ(hist.total_count(), 100.0);
  EXPECT_EQ(hist.num_feedbacks(), 0u);
}

TEST(FeedbackHistogramTest, CapacityBoundRespected) {
  FeedbackHistogram hist(Grid2D(1000, 1), 10000, /*max_buckets=*/8);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const int64_t lo = rng.Uniform(0, 990);
    hist.Feedback(Box({Interval(lo, lo + 9), Interval(0, 0)}), 10);
  }
  EXPECT_LE(hist.num_buckets(), 16u);  // 2x guard in implementation
  // Still answers estimates sanely.
  EXPECT_GE(hist.EstimateRows(Grid2D(1000, 1)), 0.0);
}

TEST(FeedbackHistogramTest, SplitBoundKeepsTheBucketsItDoesNotSplit) {
  // Seven column buckets of a 7 x 10 grid, one below the cap of 8.
  const Box full = Grid2D(7, 10);
  FeedbackHistogram hist(full, 700, /*max_buckets=*/8);
  for (int64_t x = 0; x < 6; ++x) {
    hist.Feedback(Box({Interval::Point(x), Interval(0, 9)}), 100);
  }
  ASSERT_EQ(hist.num_buckets(), 7u);

  // A row across columns 0..5 would split each of their buckets in three:
  // 19 buckets, past the bound of 2 x 8. Column 6 lies outside the row.
  const Box row({Interval(0, 5), Interval::Point(5)});
  const Box column6({Interval::Point(6), Interval(0, 9)});
  const double column6_before = hist.EstimateRows(column6);
  ASSERT_DOUBLE_EQ(column6_before, 100.0);
  // The buckets left whole straddle the row, so phase 2 rescales past it.
  EXPECT_EQ(hist.Feedback(row, 30), full);

  EXPECT_LE(hist.num_buckets(), 16u);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(column6), column6_before);
  int64_t volume = 0;
  for (const Box& box : BucketBoxes(hist)) volume += box.Volume();
  EXPECT_EQ(volume, full.Volume());  // the buckets still tile the domain
}

TEST(FeedbackHistogramTest, FeedbackReportsTheRegionItChanged) {
  const Box full = Grid2D(100, 1);
  FeedbackHistogram hist(full, 1000, /*max_buckets=*/3);
  // Below the cap every straddling bucket splits, so only buckets inside
  // the fed-back region are rescaled.
  const Box first({Interval(10, 19), Interval(0, 0)});
  EXPECT_EQ(hist.Feedback(first, 50), first);
  ASSERT_EQ(hist.num_buckets(), 3u);

  // At the cap nothing splits: the straddling bucket [20, 99] is rescaled
  // as a whole, which moves estimates outside the fed-back region.
  const Box outside({Interval(60, 99), Interval(0, 0)});
  const double outside_before = hist.EstimateRows(outside);
  EXPECT_EQ(hist.Feedback(Box({Interval(40, 59), Interval(0, 0)}), 500), full);
  EXPECT_NE(hist.EstimateRows(outside), outside_before);

  // Feedback outside the domain changes nothing.
  EXPECT_TRUE(hist.Feedback(Box({Interval(200, 300), Interval(0, 0)}), 5)
                  .empty());
}

TEST(FeedbackHistogramTest, ConvergesToTrueCountsUnderRepeatedFeedback) {
  // Ground truth: 1000 rows concentrated in [0, 99] of a 10k-wide domain.
  FeedbackHistogram hist(Box({Interval(0, 9999)}), 5000);
  const auto truth = [](const Interval& r) {
    const Interval hit = r.Intersect(Interval(0, 99));
    return hit.empty() ? int64_t{0} : hit.Width() * 10;
  };
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const int64_t lo = rng.Uniform(0, 9900);
    const Interval r(lo, lo + rng.Uniform(10, 99));
    hist.Feedback(Box({r}), truth(r));
  }
  // After the learning phase, estimates for fresh ranges should be far more
  // accurate than the cold uniform assumption.
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const int64_t lo = rng.Uniform(0, 9900);
    const Interval r(lo, lo + 50);
    err += std::abs(hist.EstimateRows(Box({r})) -
                    static_cast<double>(truth(r)));
  }
  EXPECT_LT(err / 20.0, 60.0);  // cold-start error would be ~25 per miss
                                // and ~500 inside the hot range
}

TEST(FeedbackHistogramTest, ZeroDimensionalRegion) {
  // A table with no constrainable attribute has the unit region: no
  // dimensions, volume 1, so every estimate is the whole table.
  const Box unit;
  FeedbackHistogram hist(unit, 40);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(unit), 40.0);

  EXPECT_EQ(hist.Feedback(unit, 25), unit);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(unit), 25.0);
  EXPECT_EQ(hist.num_buckets(), 1u);
  EXPECT_EQ(hist.num_feedbacks(), 1u);

  std::string blob;
  SaveEstimator(hist, &blob);
  common::BinReader r(blob);
  const std::unique_ptr<Estimator> loaded = LoadEstimator(r, 0);
  ASSERT_NE(loaded, nullptr);
  EXPECT_DOUBLE_EQ(loaded->EstimateRows(unit), 25.0);
  EXPECT_EQ(loaded->Info().buckets, 1u);
  EXPECT_EQ(loaded->Info().feedbacks, 1u);
  std::string again;
  SaveEstimator(*loaded, &again);
  EXPECT_EQ(again, blob);
}

TEST(StatsRegistryTest, RegisterAndEstimate) {
  StatsRegistry registry(OneColumnCatalog(99, 1000));
  EXPECT_EQ(registry.TableNames(), std::vector<std::string>{"T"});
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 49)})), 500.0);
  registry.Feedback("T", Box({Interval(0, 49)}), 10);
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 49)})), 10.0);
  EXPECT_EQ(registry.TotalFeedbacks(), 1u);
}

TEST(StatsRegistryTest, UnknownTableEstimatesZero) {
  StatsRegistry registry(OneColumnCatalog(99, 1000));
  EXPECT_DOUBLE_EQ(registry.EstimateRows("Nope", Box({Interval(0, 1)})), 0.0);
  EXPECT_EQ(registry.Info("Nope").buckets, 0u);
  std::string blob;
  EXPECT_FALSE(registry.SaveTable("Nope", &blob));
}

TEST(StatsRegistryTest, FeedbackReturnsTheChangedBox) {
  const Box half({Interval(0, 49)});
  const Box full({Interval(0, 99)});
  StatsRegistry registry(OneColumnCatalog(99, 1000));
  EXPECT_EQ(registry.Feedback("T", half, 10), half);

  // Uniform statistics ignore sub-region feedback: nothing changes.
  StatsRegistry frozen(OneColumnCatalog(99, 1000), StatsKind::kUniform);
  EXPECT_TRUE(frozen.Feedback("T", half, 10).empty());
  EXPECT_EQ(frozen.Feedback("T", full, 10), full);
}

TEST(StatsRegistryTest, LearningDisabledStaysUniform) {
  StatsRegistry registry(OneColumnCatalog(99, 1000), StatsKind::kUniform);
  registry.Feedback("T", Box({Interval(0, 49)}), 10);
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 49)})), 500.0);
}

TEST(StatsRegistryTest, RetiredKindTagFailsToRestore) {
  StatsRegistry registry(OneColumnCatalog(99, 1000));
  const Box full({Interval(0, 99)});
  // A well-formed blob under kind tag 3, which framed the per-dimension
  // independent histograms before they were retired:
  // [u8 3][box][f64 total][u64 feedbacks][u32 dims = 0].
  std::string blob;
  common::BinWriter w(&blob);
  w.U8(3);
  common::WriteBox(w, full);
  w.F64(400.0);
  w.U64(7);
  w.U32(0);
  EXPECT_FALSE(registry.RestoreTable("T", blob));
  // The table keeps its catalog-seeded estimator.
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", full), 1000.0);
  EXPECT_EQ(registry.Info("T").feedbacks, 0u);
}

TEST(StatsRegistryTest, MismatchedDimensionsFailToRestore) {
  // The catalog changed between runs: table T is 1-d now, but the snapshot
  // holds state over other dimension counts.
  StatsRegistry registry(OneColumnCatalog(99, 1000));
  const Box full({Interval(0, 99)});
  const Box cube({Interval(0, 9), Interval(0, 9), Interval(0, 9)});
  std::vector<std::string> blobs(4);
  FeedbackHistogram hist(cube, 500);
  hist.Feedback(Box({Interval(0, 4), Interval(0, 9), Interval(0, 9)}), 100);
  SaveEstimator(hist, &blobs[0]);
  SaveEstimator(UniformEstimator(cube, 500), &blobs[1]);
  SaveEstimator(FeedbackHistogram(Box(), 500), &blobs[2]);
  // A 1-d region whose one bucket is 2-d: [u8 2][box][u64 max buckets]
  // [u64 feedbacks][u32 buckets = 1][box][f64 count].
  common::BinWriter w(&blobs[3]);
  w.U8(2);
  common::WriteBox(w, full);
  w.U64(4096);
  w.U64(1);
  w.U32(1);
  common::WriteBox(w, Box({Interval(0, 99), Interval(0, 9)}));
  w.F64(400.0);
  for (const std::string& blob : blobs) {
    EXPECT_FALSE(registry.RestoreTable("T", blob));
    // The table keeps its catalog-seeded estimator.
    EXPECT_DOUBLE_EQ(registry.EstimateRows("T", full), 1000.0);
    EXPECT_EQ(registry.Info("T").feedbacks, 0u);
  }

  // State over the table's own dimensions restores.
  std::string matching;
  SaveEstimator(FeedbackHistogram(full, 400), &matching);
  EXPECT_TRUE(registry.RestoreTable("T", matching));
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", full), 400.0);
}

TEST(StatsRegistryKindTest, InstantiatesSelectedBackend) {
  for (const StatsKind kind :
       {StatsKind::kUniform, StatsKind::kFeedbackHistogram}) {
    StatsRegistry registry(OneColumnCatalog(99, 1000), kind);
    EXPECT_EQ(registry.kind(), kind);
    const Box half({Interval(0, 49)});
    EXPECT_NEAR(registry.EstimateRows("T", half), 500.0, 1e-6);
    registry.Feedback("T", half, 100);
    EXPECT_NEAR(registry.EstimateRows("T", half),
                kind == StatsKind::kUniform ? 500.0 : 100.0, 1e-6);
  }
}

// Parameterized sweep: feedback is idempotent — repeating the same
// observation never changes the estimate further.
class FeedbackIdempotence : public ::testing::TestWithParam<int64_t> {};

TEST_P(FeedbackIdempotence, RepeatedFeedbackStable) {
  FeedbackHistogram hist(Box({Interval(0, 999)}), 12345);
  const int64_t lo = GetParam() * 83;
  const Box region({Interval(lo, lo + 99)});
  hist.Feedback(region, 321);
  const double first = hist.EstimateRows(region);
  hist.Feedback(region, 321);
  hist.Feedback(region, 321);
  EXPECT_NEAR(hist.EstimateRows(region), first, 1e-9);
  EXPECT_NEAR(first, 321.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Offsets, FeedbackIdempotence,
                         ::testing::Range<int64_t>(0, 10));

// ---- The estimator pinned bit for bit on recorded feedback sequences.

/// One REST call's observation, as the statistics are fed it.
struct Observation {
  std::string table;
  Box region;
  int64_t num_records = 0;
};

/// The feedback sequence a fresh PayLessFullConfig client gives its
/// statistics over `bundle`'s instance list, in call order.
std::vector<Observation> RecordFeedbacks(const workload::Bundle& bundle) {
  std::mutex mutex;
  std::vector<Observation> observations;
  auto client =
      workload::NewPayLessClient(bundle, workload::PayLessFullConfig());
  client->connector()->AddListener(
      [&](const market::RestCall& call, const market::CallResult& result) {
        const catalog::TableDef* def = bundle.catalog.FindTable(call.table);
        std::lock_guard<std::mutex> lock(mutex);
        observations.push_back({call.table, market::CallRegion(*def, call),
                                result.num_records});
      });
  for (const workload::QueryInstance& q : bundle.queries) {
    EXPECT_TRUE(client->QueryWithReport(q.sql, q.params).ok()) << q.sql;
  }
  return observations;
}

/// The real_cold shape (the Fig. 10a instance list) on a small instance of
/// the data.
std::vector<Observation> RealColdFeedbacks(catalog::Catalog* catalog) {
  workload::RealDataOptions options;
  options.scale = 0.02;
  options.days = 730;
  const std::unique_ptr<workload::Bundle> bundle =
      workload::MakeRealBundle(options, 200, /*query_seed=*/1);
  *catalog = bundle->catalog;
  return RecordFeedbacks(*bundle);
}

std::vector<Observation> TpchSkewColdFeedbacks(catalog::Catalog* catalog) {
  const std::unique_ptr<workload::Bundle> bundle =
      digest::TpchSkewColdBundle();
  *catalog = bundle->catalog;
  return RecordFeedbacks(*bundle);
}

/// Seeded probe boxes over `full`: the full region itself, then boxes
/// inside it, boxes straddling one of its faces, single points and boxes
/// wholly outside the domain along one dimension.
std::vector<Box> ProbeBoxes(const Box& full, uint64_t seed) {
  std::vector<Box> probes = {full};
  if (full.num_dims() == 0 || full.empty()) return probes;
  Rng rng(seed);
  const auto inside = [&] {
    std::vector<Interval> dims;
    for (const Interval& iv : full.dims()) {
      int64_t a = rng.Uniform(iv.lo, iv.hi);
      int64_t b = rng.Uniform(iv.lo, iv.hi);
      if (a > b) std::swap(a, b);
      dims.emplace_back(a, b);
    }
    return dims;
  };
  for (int i = 0; i < 3; ++i) {
    probes.emplace_back(inside());

    std::vector<Interval> straddle = inside();
    const size_t d = rng.Index(full.num_dims());
    const Interval& face = full.dim(d);
    const int64_t reach = rng.Uniform(0, face.hi - face.lo);
    straddle[d] = rng.Uniform(0, 1) == 0
                      ? Interval(face.lo - 1 - rng.Uniform(0, 9),
                                 face.lo + reach)
                      : Interval(face.hi - reach,
                                 face.hi + 1 + rng.Uniform(0, 9));
    probes.emplace_back(std::move(straddle));

    std::vector<Interval> point;
    for (const Interval& iv : full.dims()) {
      point.push_back(Interval::Point(rng.Uniform(iv.lo, iv.hi)));
    }
    probes.emplace_back(std::move(point));

    std::vector<Interval> outside = inside();
    const size_t o = rng.Index(full.num_dims());
    const Interval& edge = full.dim(o);
    const int64_t width = rng.Uniform(0, 9);
    outside[o] = rng.Uniform(0, 1) == 0
                     ? Interval(edge.lo - 1 - width, edge.lo - 1)
                     : Interval(edge.hi + 1, edge.hi + 1 + width);
    probes.emplace_back(std::move(outside));
  }
  return probes;
}

/// Each table's probe boxes, seeded by the table's position in `catalog`.
std::map<std::string, std::vector<Box>> TableProbes(
    const catalog::Catalog& catalog) {
  std::map<std::string, std::vector<Box>> probes;
  uint64_t seed = 11;
  for (const std::string& name : catalog.TableNames()) {
    probes[name] = ProbeBoxes(catalog.FindTable(name)->FullRegion(), seed++);
  }
  return probes;
}

uint64_t HashEstimate(double estimate, uint64_t hash) {
  char bits[sizeof(estimate)];
  std::memcpy(bits, &estimate, sizeof(estimate));
  return digest::Fnv1a(std::string_view(bits, sizeof(bits)), hash);
}

std::string BoxBytes(const Box& box) {
  std::string bytes;
  common::BinWriter w(&bytes);
  common::WriteBox(w, box);
  return bytes;
}

/// Two FNV-1a hashes of one replay through a fresh registry.
struct ReplayHashes {
  /// The bits of each region's estimate just before its feedback, then
  /// every table's final saved state.
  uint64_t estimates = digest::kFnvOffset;
  /// After each feedback, the box it returned and the bits of the fed
  /// table's probe estimates.
  uint64_t learning = digest::kFnvOffset;
};

ReplayHashes Replay(const catalog::Catalog& catalog,
                    const std::vector<Observation>& observations) {
  const std::map<std::string, std::vector<Box>> probes = TableProbes(catalog);
  StatsRegistry registry(catalog);
  ReplayHashes hashes;
  for (const Observation& o : observations) {
    hashes.estimates =
        HashEstimate(registry.EstimateRows(o.table, o.region),
                     hashes.estimates);
    const Box changed = registry.Feedback(o.table, o.region, o.num_records);
    hashes.learning = digest::Fnv1a(BoxBytes(changed), hashes.learning);
    for (const Box& probe : probes.at(o.table)) {
      hashes.learning =
          HashEstimate(registry.EstimateRows(o.table, probe), hashes.learning);
    }
  }
  for (const std::string& name : catalog.TableNames()) {
    std::string blob;
    EXPECT_TRUE(registry.SaveTable(name, &blob));
    hashes.estimates = digest::Fnv1a(blob, hashes.estimates);
  }
  EXPECT_EQ(registry.TotalFeedbacks(), observations.size());
  return hashes;
}

// Any change to how the histogram estimates, splits or rescales moves these
// hashes.
TEST(StatsReplayTest, RealColdFeedbackReplaysBitForBit) {
  catalog::Catalog catalog;
  const std::vector<Observation> observations = RealColdFeedbacks(&catalog);
  ASSERT_GT(observations.size(), 500u);
  const ReplayHashes hashes = Replay(catalog, observations);
  EXPECT_EQ(hashes.estimates, 0xc22788305892d31aULL)
      << std::hex << hashes.estimates;
  EXPECT_EQ(hashes.learning, 0xdfaf1e975970c9dfULL)
      << std::hex << hashes.learning;
}

TEST(StatsReplayTest, TpchSkewColdFeedbackReplaysBitForBit) {
  catalog::Catalog catalog;
  const std::vector<Observation> observations =
      TpchSkewColdFeedbacks(&catalog);
  ASSERT_GT(observations.size(), 100u);
  const ReplayHashes hashes = Replay(catalog, observations);
  EXPECT_EQ(hashes.estimates, 0x00bd4165b96c7e1fULL)
      << std::hex << hashes.estimates;
  EXPECT_EQ(hashes.learning, 0x99f995874828d332ULL)
      << std::hex << hashes.learning;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

std::string SavedState(const auto& hist) {
  std::string blob;
  common::BinWriter w(&blob);
  hist.SaveState(w);
  return blob;
}

/// Replays `observations` through a reference histogram and a
/// FeedbackHistogram per table, both capped at `max_buckets`. Returns the
/// first estimate, changed box or saved state that differs, described;
/// empty when none does.
std::string FirstDivergence(const catalog::Catalog& catalog,
                            const std::vector<Observation>& observations,
                            size_t max_buckets) {
  struct Pair {
    naive::FeedbackHistogram reference;
    FeedbackHistogram flat;
  };
  std::map<std::string, Pair> tables;
  for (const std::string& name : catalog.TableNames()) {
    const catalog::TableDef& def = *catalog.FindTable(name);
    tables.emplace(
        name, Pair{naive::FeedbackHistogram(def.FullRegion(), def.cardinality,
                                            max_buckets),
                   FeedbackHistogram(def.FullRegion(), def.cardinality,
                                     max_buckets)});
  }
  const std::map<std::string, std::vector<Box>> probes = TableProbes(catalog);
  char what[512];
  const auto differs = [&](size_t k, const Observation& o, const Box& box,
                           double want, double got) {
    if (SameBits(want, got)) return false;
    std::snprintf(what, sizeof(what),
                  "feedback %zu on %s: estimate of %s is %.17g, reference "
                  "%.17g",
                  k, o.table.c_str(), box.ToString().c_str(), got, want);
    return true;
  };
  for (size_t k = 0; k < observations.size(); ++k) {
    const Observation& o = observations[k];
    Pair& pair = tables.at(o.table);
    if (differs(k, o, o.region, pair.reference.EstimateRows(o.region),
                pair.flat.EstimateRows(o.region))) {
      return what;
    }
    const Box want = pair.reference.Feedback(o.region, o.num_records);
    const Box got = pair.flat.Feedback(o.region, o.num_records);
    if (BoxBytes(want) != BoxBytes(got)) {
      return "feedback " + std::to_string(k) + " on " + o.table +
             " changed " + got.ToString() + ", reference " + want.ToString();
    }
    for (const Box& probe : probes.at(o.table)) {
      if (differs(k, o, probe, pair.reference.EstimateRows(probe),
                  pair.flat.EstimateRows(probe))) {
        return what;
      }
    }
    if (SavedState(pair.reference) != SavedState(pair.flat)) {
      return "feedback " + std::to_string(k) + " on " + o.table +
             ": saved states differ (" +
             std::to_string(pair.flat.num_buckets()) + " buckets, reference " +
             std::to_string(pair.reference.num_buckets()) + ")";
    }
  }
  return "";
}

// The histogram against the naive reference on both recorded sequences:
// at the registry's cap, and at a cap of 64 that the sequences pass, so
// feedback at capacity and skipped splits are compared too.
TEST(StatsReplayTest, FeedbackMatchesTheNaiveHistogram) {
  catalog::Catalog real;
  const std::vector<Observation> real_cold = RealColdFeedbacks(&real);
  catalog::Catalog tpch;
  const std::vector<Observation> tpch_skew_cold = TpchSkewColdFeedbacks(&tpch);
  for (const size_t max_buckets : {size_t{4096}, size_t{64}}) {
    EXPECT_EQ(FirstDivergence(real, real_cold, max_buckets), "")
        << "real_cold, max_buckets " << max_buckets;
    EXPECT_EQ(FirstDivergence(tpch, tpch_skew_cold, max_buckets), "")
        << "tpch_skew_cold, max_buckets " << max_buckets;
  }
}

}  // namespace
}  // namespace payless::stats
