// PayLess's cost-based optimizer (§4, Algorithm 2).
//
// Bottom-up dynamic programming in the style of System R, with three
// data-market-specific twists:
//   (i)  the cost of a plan is the MONEY it sends to data sellers — the sum
//        of estimated transactions of its REST calls (Eq. 1) — not time and
//        not call count;
//   (ii) bind joins are access paths: a relation whose bound attribute is
//        fed by an earlier relation's join values costs one (small) call per
//        distinct binding value instead of one big range scan;
//   (iii) every candidate access is first SEMANTICALLY REWRITTEN against the
//        stored views (§4.2): the optimizer prices only the remainder.
//
// Search-space reduction (all three provably lossless):
//   Theorem 1 — only left-deep plans are enumerated;
//   Theorem 2 — zero-price relations (local / cached / empty) are joined
//               first and excluded from the DP;
//   Theorem 3 — a join-disconnected relation set is planned per connected
//               component and combined with Cartesian products.
//
// Toggles reproduce the paper's ablations: `use_sqr=false` is "PayLess
// w/o SQR" / "Disable SQR"; additionally `use_search_reduction=false` is
// "Disable All" (bushy enumeration, no zero-price-first, no partition
// shortcut); `cost_model=kCalls` with SQR off approximates the
// "Minimizing Calls" baseline [27].
#ifndef PAYLESS_CORE_OPTIMIZER_H_
#define PAYLESS_CORE_OPTIMIZER_H_

#include <cstdint>
#include <limits>

#include "catalog/catalog.h"
#include "core/federation.h"
#include "core/plan.h"
#include "semstore/remainder.h"
#include "semstore/semantic_store.h"
#include "sql/bound_query.h"
#include "stats/estimator.h"

namespace payless::core {

enum class CostModelKind {
  kTransactions,  // PayLess: minimize money (transactions)
  kCalls,         // baseline [27]: minimize the number of REST calls
};

struct OptimizerOptions {
  bool use_sqr = true;
  bool use_search_reduction = true;  // Theorems 1-3 + zero-price-first
  CostModelKind cost_model = CostModelKind::kTransactions;
  /// Consistency horizon: only stored views with epoch >= min_epoch are
  /// usable (§4.3). INT64_MIN = weak consistency (use everything).
  int64_t min_epoch = std::numeric_limits<int64_t>::min();
  semstore::RemainderOptions remainder;
  /// Hard cap on the DP width; queries with more priced relations are
  /// rejected (far beyond every workload in the paper).
  size_t max_dp_relations = 16;
  /// Federation: per-dataset buy-site menus. When set, every priced access
  /// is repriced against the cheapest live endpoint and annotated with the
  /// chosen buy-site. nullptr = single-market pricing from the catalog.
  /// Not owned; must outlive the optimization call.
  const FederationPricing* federation = nullptr;
};

struct OptimizeResult {
  Plan plan;
  PlanningCounters counters;
};

class Optimizer {
 public:
  Optimizer(const catalog::Catalog* catalog, const stats::StatsRegistry* stats,
            const semstore::SemanticStore* store, OptimizerOptions options)
      : catalog_(catalog),
        stats_(stats),
        store_(store),
        options_(options) {}

  /// Derives the cheapest plan for `query`.
  Result<OptimizeResult> Optimize(const sql::BoundQuery& query) const;

  const OptimizerOptions& options() const { return options_; }

  /// Per-dimension remainder specs for a table (numeric vs categorical).
  static std::vector<semstore::DimSpec> DimSpecsFor(
      const catalog::TableDef& def);

 private:
  static constexpr int64_t kInfeasible =
      std::numeric_limits<int64_t>::max() / 4;

  int64_t AccessCost(const AccessSpec& access) const;

  /// Prices a single-relation access with semantic rewriting: a plain
  /// access shaped by the relation's own conditions, or a bind access fed
  /// by `edges` from `left_rows` estimated rows of the relations before it.
  AccessSpec PlanPlainAccess(const sql::BoundQuery& query, size_t rel,
                             PlanningCounters* counters) const;
  AccessSpec PlanBindAccess(const sql::BoundQuery& query, size_t rel,
                            const std::vector<sql::JoinEdge>& edges,
                            double left_rows,
                            PlanningCounters* counters) const;

  /// Federation: annotates a priced access with the cheapest live buy-site
  /// from the per-endpoint menu and rewrites its transaction estimate to
  /// that endpoint's page size. No-op when no menu covers the dataset.
  void ChooseBuySite(const catalog::DatasetDef& dataset,
                     AccessSpec* spec) const;

  /// Estimated distinct values count of a column within a relation's
  /// estimated result.
  double EstimateDistinct(const catalog::TableDef& def, size_t col,
                          double rows) const;

  /// Estimated cardinality of joining `left_rows` with `right_rows` via
  /// `edges` (textbook 1/max(d_l, d_r) per edge).
  double JoinEstimate(const sql::BoundQuery& query, double left_rows,
                      double right_rows,
                      const std::vector<sql::JoinEdge>& edges) const;

  Result<OptimizeResult> OptimizeLeftDeep(const sql::BoundQuery& query) const;
  Result<OptimizeResult> OptimizeExhaustive(const sql::BoundQuery& query) const;

  const catalog::Catalog* catalog_;
  const stats::StatsRegistry* stats_;
  const semstore::SemanticStore* store_;
  OptimizerOptions options_;
};

}  // namespace payless::core

#endif  // PAYLESS_CORE_OPTIMIZER_H_
