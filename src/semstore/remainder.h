// Remainder-query generation for semantic query rewriting (§4.2).
//
// Given a query footprint Q over one market table and the regions V of the
// stored RESTful queries, the data still to buy is V̄ = Q \ ∪V. Because the
// market's access interface cannot express disjunctions, V̄ must be covered
// by a set of box-shaped remainder queries — and §4.2's key observation is
// that the cheapest cover may OVERLAP stored regions (re-downloading a few
// already-owned tuples can save a whole transaction page).
//
// The pipeline mirrors the paper exactly:
//   1. decompose V̄ into disjoint elementary boxes (the grid induced by the
//      corners of Q and the stored views — Fig. 7c);
//   2. Algorithm 1: enumerate candidate bounding boxes from the per-
//      dimension separator sets, pruning (rule 1) non-minimal boxes and
//      (rule 2) boxes costing no less than their member elementary boxes;
//   3. pick the cheapest complete cover with Chvátal's greedy weighted
//      set-cover heuristic [22].
//
// Per-dimension modes capture the access-pattern legality rules:
//   - numeric dims allow any sub-range (Fig. 7);
//   - categorical dims allow a single value or the whole domain (Fig. 8);
//   - bind-join dims allow single known binding values, ranges spanning
//     known values, or the whole domain — never ranges relying on unknown
//     values (Fig. 9).
#ifndef PAYLESS_SEMSTORE_REMAINDER_H_
#define PAYLESS_SEMSTORE_REMAINDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace payless::semstore {

/// How candidate bounding-box extents may be chosen on one dimension.
struct DimSpec {
  enum class Mode {
    kNumeric,      // any sub-range between separators
    kCategorical,  // a single value or the whole domain
    kValueSet,     // bind dim: known values / runs of known values / domain
  };

  Mode mode = Mode::kNumeric;
  /// Full attribute domain (categorical dims: [0, n-1] of codes).
  Interval domain;
  /// kValueSet only: the known binding values (codes), sorted ascending.
  std::vector<int64_t> known_values;
  /// kValueSet only: whether the whole-domain extent is issuable (the bind
  /// attribute is kFree rather than kBound).
  bool whole_domain_allowed = false;
};

struct RemainderOptions {
  bool prune_minimal = true;  // Algorithm 1, pruning rule 1
  bool prune_price = true;    // Algorithm 1, pruning rule 2
  int64_t tuples_per_transaction = 100;
  /// Categorical dims wider than this many values are not refined to single
  /// values; candidates there are whole-domain only (guards grid blowup).
  size_t max_categorical_values = 64;
  /// Guards on combinatorial size; on overflow the generator degrades to
  /// covering with the elementary boxes themselves (always correct).
  size_t max_cells = 100000;
  size_t max_candidates = 500000;
};

/// Instrumentation for Fig. 15 (bounding-box pruning effectiveness).
struct RemainderCounters {
  size_t elementary_boxes = 0;
  size_t enumerated_boxes = 0;  // all candidates constructed ("No Pruning")
  size_t kept_boxes = 0;        // survivors of both pruning rules
  size_t cover_boxes = 0;       // chosen by the set cover
};

struct RemainderResult {
  /// True iff the stored views already cover Q — zero remainder, zero price.
  bool fully_covered = false;
  /// The remainder queries to issue (disjointness NOT guaranteed — overlaps
  /// are deliberate when they save transactions).
  std::vector<Box> remainder_boxes;
  /// Estimated total transactions of the remainder queries.
  int64_t estimated_transactions = 0;
  RemainderCounters counters;
};

/// Row-count oracle for a box (backed by StatsRegistry in production,
/// arbitrary in tests).
using BoxEstimator = std::function<double(const Box&)>;

/// Expected transactions to download an estimated `rows` rows (never 0: a
/// remainder query must be issued even if statistics predict it is empty —
/// only the market knows for sure).
int64_t EstimatedTransactions(double rows, int64_t tuples_per_transaction);

/// Legal single-call expansion of an arbitrary box: a categorical extent
/// that spans several values, but not the whole domain, widens to the
/// domain (one value or the whole domain, Fig. 8). Every box
/// GenerateRemainder estimates over kNumeric/kCategorical dims lies inside
/// the ValidExpansion of its `query`.
Box ValidExpansion(const Box& box, const std::vector<DimSpec>& dims);

/// Core entry point. `query` is Q (already clipped to the table's domains);
/// `stored` are the usable stored-view regions; `dims` has one spec per
/// region dimension. For kValueSet dims, `query.dim(d)` must span the known
/// values' range; only the known-value slabs are treated as requested.
RemainderResult GenerateRemainder(const Box& query,
                                  const std::vector<Box>& stored,
                                  const std::vector<DimSpec>& dims,
                                  const BoxEstimator& estimate,
                                  const RemainderOptions& options);

}  // namespace payless::semstore

#endif  // PAYLESS_SEMSTORE_REMAINDER_H_
