#include "semstore/remainder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>

namespace payless::semstore {

namespace {

// An elementary box (uncovered cell) with its estimated download price.
struct Cell {
  Box box;
  int64_t price = 1;
};

// A candidate remainder query: the box, its price, and the cells it covers.
struct Candidate {
  Box box;
  int64_t price = 1;
  std::vector<size_t> cells;
};

// Splits `piece` along the per-dimension boundary values (half-open
// boundaries b: cut between b-1 and b). Appends the fragments to `out`.
// Returns false when the fragment budget is exhausted.
bool SplitByBoundaries(const Box& piece,
                       const std::vector<std::vector<int64_t>>& boundaries,
                       size_t max_cells, std::vector<Box>* out) {
  std::vector<Box> current = {piece};
  for (size_t d = 0; d < piece.num_dims(); ++d) {
    std::vector<Box> next;
    for (const Box& box : current) {
      const Interval extent = box.dim(d);
      int64_t lo = extent.lo;
      for (const int64_t b : boundaries[d]) {
        if (b <= lo || b > extent.hi) continue;
        Box fragment = box;
        fragment.dim(d) = Interval(lo, b - 1);
        next.push_back(std::move(fragment));
        lo = b;
      }
      Box last = box;
      last.dim(d) = Interval(lo, extent.hi);
      next.push_back(std::move(last));
      if (next.size() + out->size() > max_cells) return false;
    }
    current = std::move(next);
  }
  out->insert(out->end(), std::make_move_iterator(current.begin()),
              std::make_move_iterator(current.end()));
  return out->size() <= max_cells;
}

// Smallest legal extent on dimension `d` that contains `tight`. Legality
// follows the access-pattern rules for the dimension's mode.
Interval TightValidExtent(const DimSpec& dim, const Interval& tight) {
  switch (dim.mode) {
    case DimSpec::Mode::kNumeric:
      return tight;
    case DimSpec::Mode::kCategorical:
      if (tight.Width() <= 1) return tight;
      return dim.domain;  // multi-value categorical => whole domain only
    case DimSpec::Mode::kValueSet: {
      // Snap endpoints outward to known binding values.
      const std::vector<int64_t>& vals = dim.known_values;
      auto lo_it = std::upper_bound(vals.begin(), vals.end(), tight.lo);
      auto hi_it = std::lower_bound(vals.begin(), vals.end(), tight.hi);
      const int64_t lo = lo_it == vals.begin() ? vals.front() : *(lo_it - 1);
      const int64_t hi = hi_it == vals.end() ? vals.back() : *hi_it;
      return Interval(std::min(lo, tight.lo), std::max(hi, tight.hi));
    }
  }
  return tight;
}

}  // namespace

Box ValidExpansion(const Box& box, const std::vector<DimSpec>& dims) {
  Box out = box;
  for (size_t d = 0; d < dims.size(); ++d) {
    const Interval extent = out.dim(d);
    switch (dims[d].mode) {
      case DimSpec::Mode::kNumeric:
        break;
      case DimSpec::Mode::kCategorical:
        if (extent.Width() > 1 && !(extent == dims[d].domain)) {
          out.dim(d) = dims[d].domain;
        }
        break;
      case DimSpec::Mode::kValueSet:
        break;  // cells live on single-value slabs: already legal
    }
  }
  return out;
}

int64_t EstimatedTransactions(double rows, int64_t tuples_per_transaction) {
  if (rows < 0.0) rows = 0.0;
  const int64_t txn = static_cast<int64_t>(
      std::ceil(rows / static_cast<double>(tuples_per_transaction)));
  return txn < 1 ? 1 : txn;
}

RemainderResult GenerateRemainder(const Box& query,
                                  const std::vector<Box>& stored,
                                  const std::vector<DimSpec>& dims,
                                  const BoxEstimator& estimate,
                                  const RemainderOptions& options) {
  assert(query.num_dims() == dims.size());
  RemainderResult result;
  if (query.empty()) {
    result.fully_covered = true;
    return result;
  }

  // ---- Requested region: for kValueSet dims only the known-value slabs are
  // wanted; other dims want the full query extent.
  std::vector<Box> requested = {query};
  for (size_t d = 0; d < dims.size(); ++d) {
    if (dims[d].mode != DimSpec::Mode::kValueSet) continue;
    std::vector<Box> next;
    for (const Box& box : requested) {
      for (const int64_t v : dims[d].known_values) {
        if (!box.dim(d).Contains(v)) continue;
        Box slab = box;
        slab.dim(d) = Interval::Point(v);
        next.push_back(std::move(slab));
      }
    }
    requested = std::move(next);
  }
  if (requested.empty()) {
    result.fully_covered = true;  // no binding values => nothing to fetch
    return result;
  }

  // ---- Holes: stored regions clipped to the query.
  std::vector<Box> holes;
  for (const Box& v : stored) {
    const Box clipped = v.Intersect(query);
    if (!clipped.empty()) holes.push_back(clipped);
  }

  // ---- V̄ as disjoint pieces.
  std::vector<Box> uncovered;
  for (const Box& want : requested) {
    for (Box& piece : SubtractAll(want, holes)) {
      uncovered.push_back(std::move(piece));
    }
  }
  if (uncovered.empty()) {
    result.fully_covered = true;
    return result;
  }

  // ---- Separator boundaries per dimension (half-open cut positions).
  std::vector<std::vector<int64_t>> boundaries(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    std::set<int64_t> cuts;
    cuts.insert(query.dim(d).lo);
    cuts.insert(query.dim(d).hi + 1);
    for (const Box& hole : holes) {
      cuts.insert(hole.dim(d).lo);
      cuts.insert(hole.dim(d).hi + 1);
    }
    if (dims[d].mode == DimSpec::Mode::kCategorical &&
        static_cast<size_t>(query.dim(d).Width()) <=
            options.max_categorical_values) {
      for (int64_t v = query.dim(d).lo; v <= query.dim(d).hi; ++v) {
        cuts.insert(v);
      }
    }
    if (dims[d].mode == DimSpec::Mode::kValueSet) {
      for (const int64_t v : dims[d].known_values) {
        cuts.insert(v);
        cuts.insert(v + 1);
      }
    }
    boundaries[d].assign(cuts.begin(), cuts.end());
  }

  // ---- Elementary boxes: uncovered pieces refined to the separator grid.
  std::vector<Box> cell_boxes;
  bool grid_ok = true;
  for (const Box& piece : uncovered) {
    if (!SplitByBoundaries(piece, boundaries, options.max_cells,
                           &cell_boxes)) {
      grid_ok = false;
      break;
    }
  }
  if (!grid_ok) {
    // Degraded mode: cover with the (legalized) uncovered pieces directly.
    for (const Box& piece : uncovered) {
      Box legal = ValidExpansion(piece, dims);
      result.remainder_boxes.push_back(legal);
      result.estimated_transactions += EstimatedTransactions(
          estimate(legal), options.tuples_per_transaction);
    }
    result.counters.elementary_boxes = uncovered.size();
    result.counters.cover_boxes = result.remainder_boxes.size();
    return result;
  }

  std::vector<Cell> cells;
  cells.reserve(cell_boxes.size());
  for (Box& box : cell_boxes) {
    Cell cell;
    cell.price =
        EstimatedTransactions(estimate(box), options.tuples_per_transaction);
    cell.box = std::move(box);
    cells.push_back(std::move(cell));
  }
  result.counters.elementary_boxes = cells.size();

  // ---- Candidate extents per dimension.
  std::vector<std::vector<Interval>> extents(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    const std::vector<int64_t>& cuts = boundaries[d];
    std::vector<Interval>& list = extents[d];
    switch (dims[d].mode) {
      case DimSpec::Mode::kNumeric:
        for (size_t a = 0; a + 1 < cuts.size(); ++a) {
          for (size_t b = a + 1; b < cuts.size(); ++b) {
            list.emplace_back(cuts[a], cuts[b] - 1);
          }
        }
        break;
      case DimSpec::Mode::kCategorical: {
        const Interval q = query.dim(d);
        if (static_cast<size_t>(q.Width()) <= options.max_categorical_values) {
          for (int64_t v = q.lo; v <= q.hi; ++v) {
            list.push_back(Interval::Point(v));
          }
        }
        // The whole-extent candidate: legal when it is a single value or the
        // entire domain ("one value or the whole domain", Fig. 8).
        if (q.Width() > 1 && q == dims[d].domain) list.push_back(q);
        break;
      }
      case DimSpec::Mode::kValueSet: {
        const std::vector<int64_t>& vals = dims[d].known_values;
        for (size_t i = 0; i < vals.size(); ++i) {
          for (size_t j = i; j < vals.size(); ++j) {
            list.emplace_back(vals[i], vals[j]);
          }
        }
        if (dims[d].whole_domain_allowed &&
            !(vals.size() == 1 && Interval::Point(vals[0]) == dims[d].domain)) {
          list.push_back(dims[d].domain);
        }
        break;
      }
    }
    if (list.empty()) list.push_back(query.dim(d));  // degenerate fallback
  }

  // ---- Enumerate candidates (cartesian product of per-dim extents) with
  // the two pruning rules of Algorithm 1.
  size_t product_size = 1;
  bool enumerable = true;
  for (const std::vector<Interval>& list : extents) {
    if (product_size > options.max_candidates / std::max<size_t>(1, list.size())) {
      enumerable = false;
      break;
    }
    product_size *= list.size();
  }

  std::vector<Candidate> kept;
  if (enumerable) {
    std::vector<size_t> idx(dims.size(), 0);
    while (true) {
      Box candidate_box = query;  // shape only; extents overwritten below
      for (size_t d = 0; d < dims.size(); ++d) {
        candidate_box.dim(d) = extents[d][idx[d]];
      }
      ++result.counters.enumerated_boxes;

      std::vector<size_t> contained;
      for (size_t c = 0; c < cells.size(); ++c) {
        if (candidate_box.Contains(cells[c].box)) contained.push_back(c);
      }
      bool keep = !contained.empty();

      if (keep && options.prune_minimal) {
        // Pruning rule 1: only minimum (tight, up to legality) boxes stay.
        for (size_t d = 0; d < dims.size() && keep; ++d) {
          int64_t lo = std::numeric_limits<int64_t>::max();
          int64_t hi = std::numeric_limits<int64_t>::min();
          for (const size_t c : contained) {
            lo = std::min(lo, cells[c].box.dim(d).lo);
            hi = std::max(hi, cells[c].box.dim(d).hi);
          }
          const Interval tight =
              TightValidExtent(dims[d], Interval(lo, hi));
          if (!(candidate_box.dim(d) == tight)) keep = false;
        }
      }

      int64_t price = 0;
      if (keep) {
        price = EstimatedTransactions(estimate(candidate_box),
                                      options.tuples_per_transaction);
        if (options.prune_price) {
          // Pruning rule 2: the box must beat buying its members separately.
          int64_t member_sum = 0;
          for (const size_t c : contained) member_sum += cells[c].price;
          if (contained.size() > 1 && price >= member_sum) keep = false;
        }
      }

      if (keep) {
        Candidate cand;
        cand.box = candidate_box;
        cand.price = price;
        cand.cells = std::move(contained);
        kept.push_back(std::move(cand));
      }

      // Advance the mixed-radix counter.
      size_t d = 0;
      while (d < dims.size() && ++idx[d] == extents[d].size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == dims.size()) break;
    }
  }
  result.counters.kept_boxes = kept.size();

  // ---- Guarantee feasibility: each cell's legalized singleton is always an
  // available candidate (the paper's elementary boxes are themselves
  // retrievable remainder queries).
  for (size_t c = 0; c < cells.size(); ++c) {
    Candidate single;
    single.box = ValidExpansion(cells[c].box, dims);
    if (single.box == cells[c].box) {
      single.price = cells[c].price;
      single.cells = {c};
    } else {
      single.price = EstimatedTransactions(estimate(single.box),
                                           options.tuples_per_transaction);
      for (size_t o = 0; o < cells.size(); ++o) {
        if (single.box.Contains(cells[o].box)) single.cells.push_back(o);
      }
    }
    kept.push_back(std::move(single));
  }

  // ---- Chvátal greedy weighted set cover.
  std::vector<bool> covered(cells.size(), false);
  size_t remaining = cells.size();
  std::vector<bool> used(kept.size(), false);
  while (remaining > 0) {
    double best_ratio = std::numeric_limits<double>::infinity();
    size_t best = kept.size();
    size_t best_new = 0;
    for (size_t k = 0; k < kept.size(); ++k) {
      if (used[k]) continue;
      size_t new_cells = 0;
      for (const size_t c : kept[k].cells) {
        if (!covered[c]) ++new_cells;
      }
      if (new_cells == 0) continue;
      const double ratio = static_cast<double>(kept[k].price) /
                           static_cast<double>(new_cells);
      if (ratio < best_ratio ||
          (ratio == best_ratio && new_cells > best_new)) {
        best_ratio = ratio;
        best = k;
        best_new = new_cells;
      }
    }
    assert(best < kept.size() && "set cover must be feasible");
    used[best] = true;
    for (const size_t c : kept[best].cells) {
      if (!covered[c]) {
        covered[c] = true;
        --remaining;
      }
    }
    result.remainder_boxes.push_back(kept[best].box);
    result.estimated_transactions += kept[best].price;
  }
  result.counters.cover_boxes = result.remainder_boxes.size();
  return result;
}

}  // namespace payless::semstore
