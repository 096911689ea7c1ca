// Remainder-query generation (§4.2, Algorithm 1): the paper's running
// examples of Figures 6-9 plus coverage-completeness property sweeps.
#include "semstore/remainder.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace payless::semstore {
namespace {

DimSpec NumericDim(int64_t lo, int64_t hi) {
  DimSpec d;
  d.mode = DimSpec::Mode::kNumeric;
  d.domain = Interval(lo, hi);
  return d;
}

DimSpec CategoricalDim(int64_t n) {
  DimSpec d;
  d.mode = DimSpec::Mode::kCategorical;
  d.domain = Interval(0, n - 1);
  return d;
}

DimSpec ValueSetDim(int64_t lo, int64_t hi, std::vector<int64_t> values,
                    bool whole_domain) {
  DimSpec d;
  d.mode = DimSpec::Mode::kValueSet;
  d.domain = Interval(lo, hi);
  d.known_values = std::move(values);
  d.whole_domain_allowed = whole_domain;
  return d;
}

/// Piecewise-constant 1-d estimator from (interval, count) segments.
BoxEstimator SegmentEstimator(
    std::vector<std::pair<Interval, double>> segments) {
  return [segments](const Box& box) {
    double total = 0.0;
    for (const auto& [range, count] : segments) {
      const Interval overlap = box.dim(0).Intersect(range);
      if (overlap.empty()) continue;
      total += count * static_cast<double>(overlap.Width()) /
               static_cast<double>(range.Width());
    }
    return total;
  };
}

TEST(EstimatedTransactionsTest, NeverZero) {
  EXPECT_EQ(EstimatedTransactions(0.0, 100), 1);
  EXPECT_EQ(EstimatedTransactions(-5.0, 100), 1);
  EXPECT_EQ(EstimatedTransactions(1.0, 100), 1);
  EXPECT_EQ(EstimatedTransactions(100.0, 100), 1);
  EXPECT_EQ(EstimatedTransactions(100.5, 100), 2);
  EXPECT_EQ(EstimatedTransactions(123.0, 100), 2);
}

TEST(RemainderTest, EmptyQueryIsFullyCovered) {
  const RemainderResult r = GenerateRemainder(
      Box({Interval::Empty()}), {}, {NumericDim(0, 100)},
      [](const Box&) { return 0.0; }, RemainderOptions{});
  EXPECT_TRUE(r.fully_covered);
}

TEST(RemainderTest, NoViewsYieldsTheQueryItself) {
  const Box query({Interval(10, 50)});
  const RemainderResult r = GenerateRemainder(
      query, {}, {NumericDim(0, 100)},
      [](const Box& b) { return static_cast<double>(b.Volume()); },
      RemainderOptions{});
  ASSERT_EQ(r.remainder_boxes.size(), 1u);
  EXPECT_EQ(r.remainder_boxes[0], query);
  EXPECT_EQ(r.estimated_transactions, 1);
}

TEST(RemainderTest, FullCoverageNeedsNoCalls) {
  const Box query({Interval(10, 50)});
  const RemainderResult r = GenerateRemainder(
      query, {Box({Interval(0, 30)}), Box({Interval(31, 60)})},
      {NumericDim(0, 100)}, [](const Box&) { return 1.0; },
      RemainderOptions{});
  EXPECT_TRUE(r.fully_covered);
  EXPECT_TRUE(r.remainder_boxes.empty());
}

// ---------------------------------------------------------------------------
// Figure 6: Q = R(A[0,100]), V1 = [10,20) (28 tuples), V2 = [30,60)
// (91 tuples); elementary estimates 21 / 34 / 123. The vanilla remainder
// set Rem1 = {[0,10), [20,30), [60,100]} costs 4 transactions; the optimal
// Rem2 = {[0,30) overlapping V1, [60,100]} costs 3.
// ---------------------------------------------------------------------------
TEST(RemainderTest, Figure6MergedRemainderBeatsVanilla) {
  const Box query({Interval(0, 100)});
  const std::vector<Box> stored = {Box({Interval(10, 19)}),
                                   Box({Interval(30, 59)})};
  const BoxEstimator estimate = SegmentEstimator({
      {Interval(0, 9), 21.0},
      {Interval(10, 19), 28.0},
      {Interval(20, 29), 34.0},
      {Interval(30, 59), 91.0},
      {Interval(60, 100), 123.0},
  });
  const RemainderResult r = GenerateRemainder(
      query, stored, {NumericDim(0, 100)}, estimate, RemainderOptions{});
  ASSERT_FALSE(r.fully_covered);
  EXPECT_EQ(r.counters.elementary_boxes, 3u);
  // The paper's Rem2: 3 transactions, not the vanilla 4.
  EXPECT_EQ(r.estimated_transactions, 3);
  ASSERT_EQ(r.remainder_boxes.size(), 2u);
  // One remainder box must overlap stored V1 (the [0,30) merge).
  bool overlaps_stored = false;
  for (const Box& box : r.remainder_boxes) {
    if (box.Overlaps(stored[0])) overlaps_stored = true;
  }
  EXPECT_TRUE(overlaps_stored);
  // Together with the stored views the remainder covers the whole query.
  std::vector<Box> all = stored;
  all.insert(all.end(), r.remainder_boxes.begin(), r.remainder_boxes.end());
  EXPECT_TRUE(IsCovered(query, all));
}

TEST(RemainderTest, Figure6VanillaWhenMergeDoesNotPay) {
  // Same geometry but the merged box would cost MORE than its members:
  // crank up V1's tuple count so re-downloading it wastes a page.
  const Box query({Interval(0, 100)});
  const std::vector<Box> stored = {Box({Interval(10, 19)}),
                                   Box({Interval(30, 59)})};
  const BoxEstimator estimate = SegmentEstimator({
      {Interval(0, 9), 21.0},
      {Interval(10, 19), 280.0},  // merging now costs an extra page
      {Interval(20, 29), 34.0},
      {Interval(30, 59), 91.0},
      {Interval(60, 100), 123.0},
  });
  const RemainderResult r = GenerateRemainder(
      query, stored, {NumericDim(0, 100)}, estimate, RemainderOptions{});
  // [0,30) would hold 335 tuples = 4 transactions >= 1+1: pruned; the
  // vanilla decomposition (1 + 1 + 2 = 4) is optimal.
  EXPECT_EQ(r.estimated_transactions, 4);
  EXPECT_EQ(r.remainder_boxes.size(), 3u);
}

// ---------------------------------------------------------------------------
// Figure 7-style 2-d example.
// ---------------------------------------------------------------------------
TEST(RemainderTest, TwoDimensionalCoverIsComplete) {
  const Box query({Interval(30, 80), Interval(0, 50)});
  const std::vector<Box> stored = {
      Box({Interval(0, 50), Interval(0, 30)}),
      Box({Interval(60, 70), Interval(10, 40)}),
      Box({Interval(20, 40), Interval(40, 60)}),
  };
  const RemainderResult r = GenerateRemainder(
      query, stored, {NumericDim(0, 90), NumericDim(0, 60)},
      [](const Box& b) { return static_cast<double>(b.Volume()) / 20.0; },
      RemainderOptions{});
  ASSERT_FALSE(r.fully_covered);
  std::vector<Box> all = stored;
  all.insert(all.end(), r.remainder_boxes.begin(), r.remainder_boxes.end());
  EXPECT_TRUE(IsCovered(query, all));
  EXPECT_GT(r.counters.enumerated_boxes, r.counters.kept_boxes);
}

TEST(RemainderTest, PruningRulesReduceKeptBoxes) {
  const Box query({Interval(0, 60), Interval(0, 60)});
  const std::vector<Box> stored = {
      Box({Interval(10, 20), Interval(10, 20)}),
      Box({Interval(35, 45), Interval(30, 50)}),
  };
  const BoxEstimator estimate = [](const Box& b) {
    return static_cast<double>(b.Volume()) / 10.0;
  };
  RemainderOptions with_pruning;
  RemainderOptions without_pruning;
  without_pruning.prune_minimal = false;
  without_pruning.prune_price = false;
  const RemainderResult pruned = GenerateRemainder(
      query, stored, {NumericDim(0, 100), NumericDim(0, 100)}, estimate,
      with_pruning);
  const RemainderResult unpruned = GenerateRemainder(
      query, stored, {NumericDim(0, 100), NumericDim(0, 100)}, estimate,
      without_pruning);
  EXPECT_LT(pruned.counters.kept_boxes, unpruned.counters.kept_boxes);
  // Both still cover everything.
  for (const RemainderResult* r : {&pruned, &unpruned}) {
    std::vector<Box> all = stored;
    all.insert(all.end(), r->remainder_boxes.begin(),
               r->remainder_boxes.end());
    EXPECT_TRUE(IsCovered(query, all));
  }
  // Pruning never worsens the chosen cover's estimated price.
  EXPECT_LE(pruned.estimated_transactions,
            unpruned.estimated_transactions + 1);
}

// ---------------------------------------------------------------------------
// Figure 8: categorical dimension — remainder boxes span one value or the
// whole domain, never a multi-value sub-range.
// ---------------------------------------------------------------------------
TEST(RemainderTest, CategoricalBoxesAreSingleValueOrWholeDomain) {
  const int64_t kValues = 6;
  const Box query({Interval(0, 90), Interval(0, kValues - 1)});
  const std::vector<Box> stored = {
      Box({Interval(0, 40), Interval::Point(0)}),
      Box({Interval(20, 60), Interval::Point(3)}),
      Box({Interval(50, 90), Interval::Point(5)}),
  };
  const RemainderResult r = GenerateRemainder(
      query, stored, {NumericDim(0, 90), CategoricalDim(kValues)},
      [](const Box& b) { return static_cast<double>(b.Volume()) / 15.0; },
      RemainderOptions{});
  ASSERT_FALSE(r.fully_covered);
  for (const Box& box : r.remainder_boxes) {
    const Interval cat = box.dim(1);
    EXPECT_TRUE(cat.Width() == 1 || cat == Interval(0, kValues - 1))
        << box.ToString();
  }
  std::vector<Box> all = stored;
  all.insert(all.end(), r.remainder_boxes.begin(), r.remainder_boxes.end());
  EXPECT_TRUE(IsCovered(query, all));
}

TEST(RemainderTest, WideCategoricalDomainFallsBackToWholeDomain) {
  // 500 categories exceed max_categorical_values: candidates on that dim
  // are whole-domain only, but the cover must still be complete and legal.
  const Box query({Interval(0, 9), Interval(0, 499)});
  const std::vector<Box> stored = {Box({Interval(0, 4), Interval(0, 499)})};
  RemainderOptions options;
  options.max_categorical_values = 64;
  const RemainderResult r = GenerateRemainder(
      query, stored, {NumericDim(0, 9), CategoricalDim(500)},
      [](const Box& b) { return static_cast<double>(b.Volume()) / 100.0; },
      options);
  ASSERT_FALSE(r.fully_covered);
  for (const Box& box : r.remainder_boxes) {
    EXPECT_TRUE(box.dim(1).Width() == 1 || box.dim(1) == Interval(0, 499));
  }
  std::vector<Box> all = stored;
  all.insert(all.end(), r.remainder_boxes.begin(), r.remainder_boxes.end());
  EXPECT_TRUE(IsCovered(query, all));
}

// ---------------------------------------------------------------------------
// Figure 9: bind-join dimension with known binding values.
// ---------------------------------------------------------------------------
TEST(RemainderTest, ValueSetOnlyRequestsKnownSlabs) {
  // Bind values {2, 5, 9, 10} on dim 0; dim 1 is the A3 range.
  const Box query({Interval(2, 10), Interval(8, 18)});
  const std::vector<Box> stored;  // nothing cached
  const RemainderResult r = GenerateRemainder(
      query, stored,
      {ValueSetDim(0, 20, {2, 5, 9, 10}, /*whole_domain=*/false),
       NumericDim(0, 30)},
      [](const Box& b) { return static_cast<double>(b.Volume()) / 8.0; },
      RemainderOptions{});
  ASSERT_FALSE(r.fully_covered);
  // Every remainder box's dim-0 extent starts and ends at known values.
  const std::vector<int64_t> known = {2, 5, 9, 10};
  for (const Box& box : r.remainder_boxes) {
    EXPECT_TRUE(std::count(known.begin(), known.end(), box.dim(0).lo) == 1);
    EXPECT_TRUE(std::count(known.begin(), known.end(), box.dim(0).hi) == 1);
  }
  // All requested slabs are covered.
  std::vector<Box> all = r.remainder_boxes;
  for (const int64_t v : known) {
    EXPECT_TRUE(IsCovered(Box({Interval::Point(v), Interval(8, 18)}), all))
        << "value " << v;
  }
}

TEST(RemainderTest, ValueSetReusesCoveredSlabs) {
  // The stored query V of Fig. 9 covered values {2, 5} on A3 [10, 15].
  const Box query({Interval(2, 10), Interval(10, 15)});
  const std::vector<Box> stored = {Box({Interval(2, 2), Interval(10, 15)}),
                                   Box({Interval(5, 5), Interval(10, 15)})};
  const RemainderResult r = GenerateRemainder(
      query, stored,
      {ValueSetDim(0, 20, {2, 5, 9, 10}, false), NumericDim(0, 30)},
      [](const Box& b) { return static_cast<double>(b.Volume()) / 8.0; },
      RemainderOptions{});
  ASSERT_FALSE(r.fully_covered);
  // Only the {9, 10} slabs still need buying; a single [9,10] range call
  // covers both.
  for (const Box& box : r.remainder_boxes) {
    EXPECT_GE(box.dim(0).lo, 9);
  }
  std::vector<Box> all = stored;
  all.insert(all.end(), r.remainder_boxes.begin(), r.remainder_boxes.end());
  for (const int64_t v : {9, 10}) {
    EXPECT_TRUE(IsCovered(Box({Interval::Point(v), Interval(10, 15)}), all));
  }
}

TEST(RemainderTest, ValueSetFullyCoveredWithNoValues) {
  const Box query({Interval(0, 10), Interval(0, 10)});
  const RemainderResult r = GenerateRemainder(
      query, {}, {ValueSetDim(0, 20, {}, false), NumericDim(0, 30)},
      [](const Box&) { return 1.0; }, RemainderOptions{});
  EXPECT_TRUE(r.fully_covered);
}

TEST(RemainderTest, ValueSetRangeCallMayCoverIntermediateValues) {
  // A range over known values {3, 7} includes unknown rows at 4..6 — they
  // cost money but the call is legal; pruning decides if it pays.
  const Box query({Interval(3, 7), Interval(0, 0)});
  const RemainderResult r = GenerateRemainder(
      query, {}, {ValueSetDim(0, 10, {3, 7}, false), NumericDim(0, 0)},
      // Cheap data: the merged range costs 1 page, two point calls cost 2.
      [](const Box& b) { return static_cast<double>(b.Volume()); },
      RemainderOptions{});
  EXPECT_EQ(r.estimated_transactions, 1);
  ASSERT_EQ(r.remainder_boxes.size(), 1u);
  EXPECT_EQ(r.remainder_boxes[0].dim(0), Interval(3, 7));
}

// ---------------------------------------------------------------------------
// Property sweep: on random inputs the chosen remainder always completes
// the cover, never returns empty boxes, and the counters are consistent.
// ---------------------------------------------------------------------------
class RemainderProperty : public ::testing::TestWithParam<int> {};

TEST_P(RemainderProperty, CoverIsAlwaysComplete) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  const auto random_box = [&rng](int64_t max) {
    const int64_t a = rng.Uniform(0, max);
    const int64_t b = rng.Uniform(0, max);
    const int64_t c = rng.Uniform(0, max);
    const int64_t d = rng.Uniform(0, max);
    return Box({Interval(std::min(a, b), std::max(a, b)),
                Interval(std::min(c, d), std::max(c, d))});
  };
  const Box query = random_box(40);
  std::vector<Box> stored;
  for (int64_t i = rng.Uniform(0, 6); i > 0; --i) {
    stored.push_back(random_box(40));
  }
  const RemainderResult r = GenerateRemainder(
      query, stored, {NumericDim(0, 40), NumericDim(0, 40)},
      [](const Box& b) { return static_cast<double>(b.Volume()) / 3.0; },
      RemainderOptions{});
  if (r.fully_covered) {
    EXPECT_TRUE(IsCovered(query, stored));
    return;
  }
  std::vector<Box> all = stored;
  all.insert(all.end(), r.remainder_boxes.begin(), r.remainder_boxes.end());
  EXPECT_TRUE(IsCovered(query, all));
  for (const Box& box : r.remainder_boxes) {
    EXPECT_FALSE(box.empty());
  }
  EXPECT_EQ(r.counters.cover_boxes, r.remainder_boxes.size());
  EXPECT_GT(r.counters.elementary_boxes, 0u);
  EXPECT_GT(r.estimated_transactions, 0);
}

// Every box the generator estimates lies inside the ValidExpansion of its
// query: the plan cache records that region per relation, and a feedback
// outside it cannot change the plan's price.
TEST_P(RemainderProperty, EstimatesStayInsideTheLegalizedQuery) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  const auto random_interval = [&rng](int64_t max) {
    const int64_t a = rng.Uniform(0, max);
    const int64_t b = rng.Uniform(0, max);
    return Interval(std::min(a, b), std::max(a, b));
  };
  const std::vector<DimSpec> dims = {NumericDim(0, 40), CategoricalDim(6)};
  const Box query({random_interval(40), random_interval(5)});
  std::vector<Box> stored;
  for (int64_t i = rng.Uniform(0, 6); i > 0; --i) {
    stored.push_back(Box({random_interval(40), random_interval(5)}));
  }
  RemainderOptions options;
  // Also take the wide-categorical and the degraded (cell budget) paths.
  if (GetParam() % 3 == 1) options.max_categorical_values = 1;
  if (GetParam() % 3 == 2) options.max_cells = 2;
  std::vector<Box> estimated;
  (void)GenerateRemainder(
      query, stored, dims,
      [&estimated](const Box& b) {
        estimated.push_back(b);
        return static_cast<double>(b.Volume()) / 3.0;
      },
      options);
  const Box legal = ValidExpansion(query, dims);
  for (const Box& box : estimated) {
    EXPECT_TRUE(legal.Contains(box))
        << box.ToString() << " outside " << legal.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, RemainderProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace payless::semstore
