// Counterfactual pricing and savings attribution — the "what would this
// query have cost WITHOUT PayLess" half of the savings ledger.
//
// At plan time, Price() runs the regular optimizer against the accountant's
// EMPTY semantic store: no coverage means no zero-price relations and no
// SQR remainders, so the result is the cheapest legal plan a store-less
// client would have executed — the paper's baseline in every savings
// figure (EDBT 2015 Fig. 10-15). The what-if pass touches no market
// connector, bills nothing, and mutates neither the real store nor the
// statistics: it reads the same StatsRegistry the live optimizer
// reads, which is what makes the counterfactual comparable (same beliefs,
// different coverage) and deterministic for a pinned stats snapshot.
//
// At execution time, RecordQuery() reconciles the counterfactual estimate
// against the query's realized per-dataset spend (its purchase records,
// grouped by dataset) and attributes the delta to one dominant cause per
// dataset (store full hit > SQR harvest > learned-stats switch > plan
// reuse > estimate correction), with billed-but-lost responses carved out
// as negative waste — so per dataset:
//     counterfactual == actual + savings,  sum(causes) == savings.
//
// Lives in payless_obs_explain (not base obs): pricing needs the
// optimizer, which sits above the base obs library in the layering.
#ifndef PAYLESS_OBS_SAVINGS_ACCOUNTANT_H_
#define PAYLESS_OBS_SAVINGS_ACCOUNTANT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "obs/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/savings.h"
#include "semstore/semantic_store.h"
#include "sql/bound_query.h"
#include "stats/estimator.h"

namespace payless::obs {

/// One query's realized savings, aggregated over its datasets — what
/// RecordQuery folded into the ledger, returned so the caller can update
/// metrics and the QueryReport without re-deriving the attribution.
struct QuerySavings {
  bool recorded = false;
  int64_t counterfactual = 0;
  int64_t actual = 0;
  int64_t savings = 0;  // counterfactual - actual (waste included)
  int64_t by_cause[kNumSavingsCauses] = {0, 0, 0, 0, 0, 0, 0};
};

class SavingsAccountant {
 public:
  /// One market endpoint the counterfactual may buy from: its id and its
  /// catalog (the base catalog under that endpoint's menu).
  using Endpoint = std::pair<std::string, const catalog::Catalog*>;

  /// `catalog`, `stats` and every endpoint catalog must outlive the
  /// accountant. `endpoints` are the client's markets, in registration
  /// order: one entry, {"", market catalog}, for a single market. Price()
  /// returns the cheapest SINGLE-market plan among them — the baseline a
  /// store-less client pinned to its best endpoint would pay.
  SavingsAccountant(const catalog::Catalog* catalog,
                    const stats::StatsRegistry* stats,
                    std::vector<Endpoint> endpoints);

  /// Prices the counterfactual plan for `query` under `options`, the live
  /// optimizer's options for this query, so the counterfactual differs
  /// from reality only in store coverage (the buy-site menu is dropped:
  /// the counterfactual client buys from one market). Read-only and
  /// thread-safe: same query + same stats snapshot => identical result.
  core::Counterfactual Price(const sql::BoundQuery& query,
                             const core::OptimizerOptions& options) const;

  /// Order-insensitive shape signature of a plan: per-relation access
  /// kind, SQR usage and bind shape. Two plans with equal signatures made
  /// the same access decisions (they may differ in estimates).
  static std::string PlanSignature(const core::Plan& plan,
                                   const sql::BoundQuery& query);

  /// Folds one executed query into `ledger`: per dataset, savings =
  /// counterfactual - actual, attributed to a dominant cause read off the
  /// executed plan (plus negative waste for lost-response billing).
  /// `actual_cells` is the query's spend per dataset: the cells of its
  /// purchase records, summed by dataset. Returns the
  /// query-level aggregate of what was recorded. A member (not static):
  /// the federation_routing split replays each routed access's buy-site
  /// repricing under the counterfactual endpoint's menu.
  QuerySavings RecordQuery(
      const core::Counterfactual& cf, const core::Plan& executed,
      const sql::BoundQuery& query, bool plan_cache_hit,
      const std::map<std::string, CostCell>& actual_cells,
      const std::string& tenant, SavingsLedger* ledger) const;

 private:
  core::Counterfactual PriceAgainst(
      const sql::BoundQuery& query, const catalog::Catalog* catalog,
      const core::OptimizerOptions& options) const;

  const catalog::Catalog* catalog_;
  const stats::StatsRegistry* stats_;
  std::vector<Endpoint> endpoints_;
  /// The store-less world every pricing pass shares: built over no table,
  /// so every probe misses and nothing of the real store leaks in.
  const semstore::SemanticStore empty_store_{catalog::Catalog()};
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_SAVINGS_ACCOUNTANT_H_
