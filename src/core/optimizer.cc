#include "core/optimizer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>

namespace payless::core {

namespace {

/// Union-find over relation indices, for Theorem 3's connectivity test.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

double SafeVolume(const Box& box) { return static_cast<double>(box.Volume()); }

/// Fraction of `region`'s volume covered by `stored` (0 when region empty).
double CoveredVolumeFraction(const Box& region,
                             const std::vector<Box>& stored) {
  const double total = SafeVolume(region);
  if (total <= 0.0) return 1.0;
  double uncovered = 0.0;
  for (const Box& piece : SubtractAll(region, stored)) {
    uncovered += SafeVolume(piece);
  }
  const double f = 1.0 - uncovered / total;
  return std::clamp(f, 0.0, 1.0);
}

}  // namespace

std::vector<semstore::DimSpec> Optimizer::DimSpecsFor(
    const catalog::TableDef& def) {
  std::vector<semstore::DimSpec> dims;
  for (size_t col : def.ConstrainableColumns()) {
    semstore::DimSpec spec;
    spec.domain = def.columns[col].domain.ToInterval();
    spec.mode = def.columns[col].domain.is_numeric()
                    ? semstore::DimSpec::Mode::kNumeric
                    : semstore::DimSpec::Mode::kCategorical;
    dims.push_back(std::move(spec));
  }
  return dims;
}

int64_t Optimizer::AccessCost(const AccessSpec& access) const {
  if (access.IsZeroPrice()) return 0;
  if (access.est_transactions >= kInfeasible) return kInfeasible;
  return options_.cost_model == CostModelKind::kTransactions
             ? access.est_transactions
             : access.est_calls;
}

void Optimizer::ChooseBuySite(const catalog::DatasetDef& dataset,
                              AccessSpec* spec) const {
  if (options_.federation == nullptr) return;
  const std::vector<BuySiteMenu>* menu =
      options_.federation->MenuFor(dataset.name);
  if (menu == nullptr || menu->empty()) return;
  if (spec->IsZeroPrice() || spec->est_transactions >= kInfeasible) return;

  // Reprice the access under each endpoint's page size and keep the
  // cheapest live site in money (fewer pages on a tie).
  const BuySiteMenu* best = nullptr;
  int64_t best_txn = 0;
  double best_money = 0.0;
  for (const BuySiteMenu& site : *menu) {
    if (!site.live) continue;
    const int64_t txn = RepriceTransactions(
        spec->est_transactions, spec->est_calls,
        dataset.tuples_per_transaction, site.tuples_per_transaction);
    const double money = static_cast<double>(txn) * site.price_per_transaction;
    if (best == nullptr || money < best_money ||
        (money == best_money && txn < best_txn)) {
      best = &site;
      best_txn = txn;
      best_money = money;
    }
  }
  if (best == nullptr) return;  // every endpoint down: keep base pricing
  spec->buy_site = best->endpoint;
  spec->est_base_transactions = spec->est_transactions;
  spec->est_transactions = best_txn;
}

double Optimizer::EstimateDistinct(const catalog::TableDef& def, size_t col,
                                   double rows) const {
  if (rows < 0.0) rows = 0.0;
  const catalog::AttrDomain& domain = def.columns[col].domain;
  if (domain.kind() == catalog::AttrDomain::Kind::kNone) return rows;
  const double width = static_cast<double>(domain.size());
  return std::min(rows, width);
}

double Optimizer::JoinEstimate(const sql::BoundQuery& query, double left_rows,
                               double right_rows,
                               const std::vector<sql::JoinEdge>& edges) const {
  double result = left_rows * right_rows;
  for (const sql::JoinEdge& edge : edges) {
    const auto distinct_of = [&](const sql::BoundColumnRef& ref,
                                 double rows) {
      return EstimateDistinct(*query.relations[ref.rel].def, ref.col, rows);
    };
    // We do not track which side is "left" here; the containment direction
    // does not matter for the symmetric 1/max(d_l, d_r) formula.
    const double dl = distinct_of(edge.left, left_rows);
    const double dr = distinct_of(edge.right, right_rows);
    const double divisor = std::max({dl, dr, 1.0});
    result /= divisor;
  }
  return std::max(result, 0.0);
}

AccessSpec Optimizer::PlanPlainAccess(const sql::BoundQuery& query, size_t rel,
                                      PlanningCounters* counters) const {
  const sql::BoundRelation& r = query.relations[rel];
  const catalog::TableDef& def = *r.def;
  AccessSpec spec;
  spec.rel = rel;

  const Box region = r.QueryRegion();
  const double region_rows =
      r.always_empty ? 0.0 : stats_->EstimateRows(def.name, region);

  if (!r.is_market()) {
    spec.kind = AccessSpec::Kind::kLocal;
    spec.est_rows = region_rows;
    return spec;
  }
  if (r.always_empty) {
    spec.kind = AccessSpec::Kind::kEmpty;
    return spec;
  }

  const catalog::DatasetDef* dataset = catalog_->DatasetOf(def);
  assert(dataset != nullptr);
  const int64_t t = dataset->tuples_per_transaction;

  // A plain call must constrain every bound attribute through the query's
  // own conditions; otherwise the relation is only reachable via bind join
  // (the R(y^b, z^f) case of Fig. 4) or via the cache.
  bool bound_ok = true;
  for (size_t col : def.BoundColumns()) {
    if (r.conditions[col].is_none()) bound_ok = false;
  }

  if (options_.use_sqr) {
    const std::vector<Box> stored =
        store_->CoveredRegions(def.name, options_.min_epoch);
    semstore::RemainderOptions rem_options = options_.remainder;
    rem_options.tuples_per_transaction = t;
    const semstore::RemainderResult rem = semstore::GenerateRemainder(
        region, stored, DimSpecsFor(def),
        [&](const Box& box) { return stats_->EstimateRows(def.name, box); },
        rem_options);
    if (counters != nullptr) {
      counters->enumerated_bboxes += rem.counters.enumerated_boxes;
      counters->kept_bboxes += rem.counters.kept_boxes;
    }
    spec.used_sqr = true;
    spec.est_rows = region_rows;
    if (rem.fully_covered) {
      spec.kind = AccessSpec::Kind::kCached;
      return spec;
    }
    spec.kind = AccessSpec::Kind::kPlain;
    if (!bound_ok) {
      spec.est_transactions = kInfeasible;
      spec.est_calls = kInfeasible;
      return spec;
    }
    spec.est_transactions = rem.estimated_transactions;
    spec.est_calls = static_cast<int64_t>(rem.remainder_boxes.size());
    ChooseBuySite(*dataset, &spec);
    return spec;
  }

  spec.kind = AccessSpec::Kind::kPlain;
  spec.est_rows = region_rows;
  if (!bound_ok) {
    spec.est_transactions = kInfeasible;
    spec.est_calls = kInfeasible;
    return spec;
  }
  spec.est_transactions = semstore::EstimatedTransactions(region_rows, t);
  spec.est_calls = 1;
  ChooseBuySite(*dataset, &spec);
  return spec;
}

AccessSpec Optimizer::PlanBindAccess(const sql::BoundQuery& query, size_t rel,
                                     const std::vector<sql::JoinEdge>& edges,
                                     double left_rows,
                                     PlanningCounters* counters) const {
  (void)counters;
  const sql::BoundRelation& r = query.relations[rel];
  const catalog::TableDef& def = *r.def;
  AccessSpec spec;
  spec.rel = rel;
  spec.kind = AccessSpec::Kind::kBind;
  spec.est_transactions = kInfeasible;
  spec.est_calls = kInfeasible;

  if (!r.is_market()) return spec;  // never bind-join into a free table
  if (r.always_empty) {
    spec.kind = AccessSpec::Kind::kEmpty;
    spec.est_transactions = 0;
    spec.est_calls = 0;
    return spec;
  }

  // Usable edges: the side pointing at `rel` must be a constrainable column.
  std::vector<size_t> bind_cols;
  for (const sql::JoinEdge& edge : edges) {
    const sql::BoundColumnRef& own =
        edge.left.rel == rel ? edge.left : edge.right;
    if (own.rel != rel) continue;
    if (def.columns[own.col].binding == catalog::BindingKind::kOutput) {
      continue;
    }
    spec.bind_edges.push_back(edge);
    if (std::find(bind_cols.begin(), bind_cols.end(), own.col) ==
        bind_cols.end()) {
      bind_cols.push_back(own.col);
    }
  }
  if (bind_cols.empty()) return spec;  // no way to bind

  // Every bound attribute must be constrained by a condition or a binding.
  for (size_t col : def.BoundColumns()) {
    if (r.conditions[col].is_none() &&
        std::find(bind_cols.begin(), bind_cols.end(), col) ==
            bind_cols.end()) {
      return spec;
    }
  }

  const catalog::DatasetDef* dataset = catalog_->DatasetOf(def);
  assert(dataset != nullptr);
  const int64_t t = dataset->tuples_per_transaction;

  const Box region = r.QueryRegion();
  const double region_rows = stats_->EstimateRows(def.name, region);

  // Estimated distinct binding combinations: the left result cannot supply
  // more than its row count, and the combinations cannot exceed the bind
  // dimensions' joint extent within the region.
  const std::vector<size_t> constrainable = def.ConstrainableColumns();
  double joint_width = 1.0;
  for (size_t col : bind_cols) {
    const auto it =
        std::find(constrainable.begin(), constrainable.end(), col);
    assert(it != constrainable.end());
    const size_t dim = static_cast<size_t>(it - constrainable.begin());
    joint_width *= static_cast<double>(region.dim(dim).Width());
  }
  joint_width = std::max(joint_width, 1.0);
  const double v = std::clamp(left_rows, 0.0, joint_width);
  spec.est_bind_values = v;

  const double fetched = region_rows * (v / joint_width);
  const double per_value = v > 0.0 ? fetched / v : 0.0;
  spec.est_rows = fetched;

  double v_eff = v;
  if (options_.use_sqr) {
    spec.used_sqr = true;
    const std::vector<Box> stored =
        store_->CoveredRegions(def.name, options_.min_epoch);
    // Planning-time proxy for bind-join rewriting: binding values are not
    // known until the left side executes (the tx/ty/tz case of Fig. 9), so
    // the expected uncovered share of the region stands in for per-value
    // remainder generation. The executor re-runs exact remainder generation
    // (kValueSet dims) once the values are known.
    const double covered = CoveredVolumeFraction(region, stored);
    v_eff = v * (1.0 - covered);
  }

  const int64_t calls = static_cast<int64_t>(std::ceil(v_eff));
  spec.est_calls = calls;
  spec.est_transactions =
      calls == 0 ? 0 : calls * semstore::EstimatedTransactions(per_value, t);
  ChooseBuySite(*dataset, &spec);
  return spec;
}

// ---------------------------------------------------------------------------
// Left-deep DP with Theorems 1-3 (the PayLess search strategy).
// ---------------------------------------------------------------------------

namespace {

struct DpEntry {
  bool feasible = false;
  int64_t cost = 0;
  double rows = 0.0;
  std::vector<AccessSpec> accesses;
};

}  // namespace

Result<OptimizeResult> Optimizer::OptimizeLeftDeep(
    const sql::BoundQuery& query) const {
  OptimizeResult out;
  PlanningCounters& counters = out.counters;
  const size_t n = query.relations.size();

  // Size-1 best accesses (Algorithm 2 lines 3-4), via semantic rewriting.
  std::vector<AccessSpec> plain(n);
  for (size_t i = 0; i < n; ++i) {
    plain[i] = PlanPlainAccess(query, i, &counters);
    ++counters.evaluated_plans;
  }

  // Zero-price relations join first (Theorem 2; Algorithm 2 lines 1, 5).
  std::vector<size_t> prefix;     // relation indices, locals first
  std::vector<size_t> priced;     // DP relations
  for (size_t i = 0; i < n; ++i) {
    if (plain[i].kind == AccessSpec::Kind::kLocal) prefix.push_back(i);
  }
  for (size_t i = 0; i < n; ++i) {
    if (plain[i].IsZeroPrice() && plain[i].kind != AccessSpec::Kind::kLocal) {
      prefix.push_back(i);
    } else if (!plain[i].IsZeroPrice()) {
      priced.push_back(i);
    }
  }
  const size_t m = priced.size();
  if (m > options_.max_dp_relations) {
    return Status::NotSupported(
        "query joins " + std::to_string(m) +
        " priced market relations; the optimizer caps at " +
        std::to_string(options_.max_dp_relations));
  }

  // The zero-price prefix plan and its estimated cardinality.
  std::vector<AccessSpec> prefix_accesses;
  std::vector<bool> placed(n, false);
  double prefix_rows = 1.0;
  bool first = true;
  for (size_t rel : prefix) {
    prefix_accesses.push_back(plain[rel]);
    std::vector<sql::JoinEdge> edges;
    for (const sql::JoinEdge& e : query.joins) {
      const bool touches_new = e.left.rel == rel || e.right.rel == rel;
      const bool touches_placed = placed[e.left.rel] || placed[e.right.rel];
      if (touches_new && touches_placed) edges.push_back(e);
    }
    prefix_rows = first ? plain[rel].est_rows
                        : JoinEstimate(query, prefix_rows,
                                       plain[rel].est_rows, edges);
    placed[rel] = true;
    first = false;
  }
  if (first) prefix_rows = 1.0;  // empty prefix: neutral element

  if (m == 0) {
    out.plan.accesses = std::move(prefix_accesses);
    out.plan.est_cost = 0;
    out.plan.est_result_rows = prefix_rows;
    return out;
  }

  // Helper: join edges between priced relation `rel` and the placed set
  // (prefix + mask members).
  const auto edges_to_placed = [&](size_t rel, uint32_t mask) {
    std::vector<sql::JoinEdge> edges;
    const auto in_placed = [&](size_t other) {
      for (size_t p : prefix) {
        if (p == other) return true;
      }
      for (size_t b = 0; b < m; ++b) {
        if ((mask >> b & 1u) != 0 && priced[b] == other) return true;
      }
      return false;
    };
    for (const sql::JoinEdge& e : query.joins) {
      if (e.left.rel == rel && in_placed(e.right.rel)) edges.push_back(e);
      if (e.right.rel == rel && in_placed(e.left.rel)) edges.push_back(e);
    }
    return edges;
  };

  const uint32_t full = m == 32 ? ~0u : (1u << m) - 1;
  std::vector<DpEntry> dp(full + 1);
  dp[0].feasible = true;
  dp[0].cost = 0;
  dp[0].rows = prefix_rows;

  for (uint32_t mask = 1; mask <= full; ++mask) {
    DpEntry& best = dp[mask];
    const int k = std::popcount(mask);

    // Theorem 3: if the subset (together with the zero-price relations)
    // splits into join-disconnected components, the best plan is the
    // Cartesian combination of the component bests.
    if (k >= 2) {
      UnionFind uf(n);
      const auto active = [&](size_t rel) {
        if (placed[rel]) return true;  // prefix relation
        for (size_t b = 0; b < m; ++b) {
          if ((mask >> b & 1u) != 0 && priced[b] == rel) return true;
        }
        return false;
      };
      for (const sql::JoinEdge& e : query.joins) {
        if (active(e.left.rel) && active(e.right.rel)) {
          uf.Union(e.left.rel, e.right.rel);
        }
      }
      // Also glue all prefix relations together (they are joined already).
      for (size_t i = 1; i < prefix.size(); ++i) {
        uf.Union(prefix[0], prefix[i]);
      }
      const size_t anchor = prefix.empty() ? n : uf.Find(prefix[0]);
      // Group priced members of the mask by component.
      std::vector<std::pair<size_t, uint32_t>> groups;  // (root, submask)
      for (size_t b = 0; b < m; ++b) {
        if ((mask >> b & 1u) == 0) continue;
        size_t root = uf.Find(priced[b]);
        if (root == anchor && anchor != n) root = anchor;
        bool found = false;
        for (auto& [r, sub] : groups) {
          if (r == root) {
            sub |= 1u << b;
            found = true;
          }
        }
        if (!found) groups.emplace_back(root, 1u << b);
      }
      if (groups.size() > 1) {
        ++counters.evaluated_plans;
        bool feasible = true;
        int64_t cost = 0;
        double rows = std::max(prefix_rows, 1e-12);
        std::vector<AccessSpec> accesses;
        for (const auto& [_, sub] : groups) {
          const DpEntry& part = dp[sub];
          if (!part.feasible) {
            feasible = false;
            break;
          }
          cost += part.cost;
          rows *= part.rows / std::max(prefix_rows, 1e-12);
          accesses.insert(accesses.end(), part.accesses.begin(),
                          part.accesses.end());
        }
        if (feasible) {
          best.feasible = true;
          best.cost = cost;
          best.rows = rows;
          best.accesses = std::move(accesses);
        }
        continue;  // Theorem 3 short-circuits the general enumeration
      }
    }

    // General case (Theorem 1): extend every size-(k-1) left-deep plan with
    // one more call, as a regular join or as a bind join.
    for (size_t b = 0; b < m; ++b) {
      if ((mask >> b & 1u) == 0) continue;
      const uint32_t left_mask = mask & ~(1u << b);
      const DpEntry& left = dp[left_mask];
      if (!left.feasible) continue;
      const size_t rel = priced[b];
      const std::vector<sql::JoinEdge> edges = edges_to_placed(rel, left_mask);

      // Option A: regular (local) join with a plain, semantically rewritten
      // access (Algorithm 2 line 13).
      {
        ++counters.evaluated_plans;
        const int64_t access_cost = AccessCost(plain[rel]);
        if (access_cost < kInfeasible) {
          const int64_t cost = left.cost + access_cost;
          if (!best.feasible || cost < best.cost) {
            best.feasible = true;
            best.cost = cost;
            best.rows =
                JoinEstimate(query, left.rows, plain[rel].est_rows, edges);
            best.accesses = left.accesses;
            best.accesses.push_back(plain[rel]);
          }
        }
      }

      // Option B: bind join (Algorithm 2 lines 11-15).
      if (!edges.empty()) {
        ++counters.evaluated_plans;
        AccessSpec bind =
            PlanBindAccess(query, rel, edges, left.rows, &counters);
        const int64_t access_cost = AccessCost(bind);
        if (access_cost < kInfeasible &&
            access_cost <= AccessCost(plain[rel])) {
          const int64_t cost = left.cost + access_cost;
          if (!best.feasible || cost < best.cost) {
            best.feasible = true;
            best.cost = cost;
            best.rows = JoinEstimate(query, left.rows, bind.est_rows, edges);
            best.accesses = left.accesses;
            best.accesses.push_back(std::move(bind));
          }
        }
      }
    }
  }

  const DpEntry& final_entry = dp[full];
  if (!final_entry.feasible) {
    return Status::NotSupported(
        "no feasible plan: some bound attribute can be satisfied neither by "
        "the query's conditions nor by a bind join");
  }
  out.plan.accesses = prefix_accesses;
  out.plan.accesses.insert(out.plan.accesses.end(),
                           final_entry.accesses.begin(),
                           final_entry.accesses.end());
  out.plan.est_cost = final_entry.cost;
  out.plan.est_result_rows = final_entry.rows;
  return out;
}

// ---------------------------------------------------------------------------
// Exhaustive bushy enumeration ("Disable All", Fig. 14): no Theorem 1/2/3,
// no zero-price-first. Used to measure the search-space blowup; finds the
// same optimum (Theorem 1 guarantees left-deep plans contain one).
// ---------------------------------------------------------------------------

Result<OptimizeResult> Optimizer::OptimizeExhaustive(
    const sql::BoundQuery& query) const {
  OptimizeResult out;
  PlanningCounters& counters = out.counters;
  const size_t n = query.relations.size();
  if (n > 12) {
    return Status::NotSupported(
        "exhaustive enumeration caps at 12 relations");
  }

  std::vector<AccessSpec> plain(n);
  for (size_t i = 0; i < n; ++i) {
    plain[i] = PlanPlainAccess(query, i, &counters);
    ++counters.evaluated_plans;
  }

  const uint32_t full = (1u << n) - 1;
  std::vector<DpEntry> dp(full + 1);
  for (size_t i = 0; i < n; ++i) {
    DpEntry& e = dp[1u << i];
    const int64_t cost = AccessCost(plain[i]);
    if (cost >= kInfeasible) continue;
    e.feasible = true;
    e.cost = cost;
    e.rows = plain[i].est_rows;
    e.accesses = {plain[i]};
  }

  const auto crossing_edges = [&](uint32_t left_mask, uint32_t right_mask) {
    std::vector<sql::JoinEdge> edges;
    for (const sql::JoinEdge& e : query.joins) {
      const uint32_t lbit = 1u << e.left.rel;
      const uint32_t rbit = 1u << e.right.rel;
      if (((left_mask & lbit) && (right_mask & rbit)) ||
          ((left_mask & rbit) && (right_mask & lbit))) {
        edges.push_back(e);
      }
    }
    return edges;
  };

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (std::popcount(mask) < 2) continue;
    DpEntry& best = dp[mask];
    for (uint32_t left_mask = (mask - 1) & mask; left_mask != 0;
         left_mask = (left_mask - 1) & mask) {
      const uint32_t right_mask = mask & ~left_mask;
      const DpEntry& left = dp[left_mask];
      if (!left.feasible) continue;
      const std::vector<sql::JoinEdge> edges =
          crossing_edges(left_mask, right_mask);

      // Plain bushy combination.
      const DpEntry& right = dp[right_mask];
      if (right.feasible) {
        ++counters.evaluated_plans;
        const int64_t cost = left.cost + right.cost;
        if (!best.feasible || cost < best.cost) {
          best.feasible = true;
          best.cost = cost;
          best.rows = JoinEstimate(query, left.rows, right.rows, edges);
          best.accesses = left.accesses;
          best.accesses.insert(best.accesses.end(), right.accesses.begin(),
                               right.accesses.end());
        }
      }

      if (std::popcount(right_mask) == 1) {
        // Bind the single right relation from the left subtree.
        const size_t rel = static_cast<size_t>(std::countr_zero(right_mask));
        if (!edges.empty()) {
          ++counters.evaluated_plans;
          AccessSpec bind =
              PlanBindAccess(query, rel, edges, left.rows, &counters);
          const int64_t access_cost = AccessCost(bind);
          if (access_cost < kInfeasible) {
            const int64_t cost = left.cost + access_cost;
            if (!best.feasible || cost < best.cost) {
              best.feasible = true;
              best.cost = cost;
              best.rows =
                  JoinEstimate(query, left.rows, bind.est_rows, edges);
              best.accesses = left.accesses;
              best.accesses.push_back(std::move(bind));
            }
          }
        }
      } else {
        // Non-singleton right subtree: a full optimizer would re-plan each
        // right-subtree call with bindings from the left (up to 4^min{i,k-i}
        // variants, §4.1). Count those candidates; their cost cannot beat
        // the left-deep optimum (Theorem 1), so costing them is skipped.
        for (size_t j = 0; j < n; ++j) {
          if ((right_mask >> j & 1u) == 0) continue;
          const std::vector<sql::JoinEdge> bind_edges =
              crossing_edges(left_mask, 1u << j);
          if (!bind_edges.empty()) ++counters.evaluated_plans;
        }
      }
    }
  }

  const DpEntry& final_entry = dp[full];
  if (!final_entry.feasible) {
    return Status::NotSupported("no feasible plan (exhaustive mode)");
  }
  out.plan.accesses = final_entry.accesses;
  out.plan.est_cost = final_entry.cost;
  out.plan.est_result_rows = final_entry.rows;
  return out;
}

Result<OptimizeResult> Optimizer::Optimize(const sql::BoundQuery& query) const {
  if (query.relations.empty()) {
    return Status::InvalidArgument("query has no relations");
  }
  if (query.relations.size() > 32) {
    return Status::NotSupported("too many relations");
  }
  return options_.use_search_reduction ? OptimizeLeftDeep(query)
                                       : OptimizeExhaustive(query);
}

}  // namespace payless::core
