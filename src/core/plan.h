// Execution plans for data-market queries.
//
// By Theorem 1, PayLess only needs LEFT-DEEP plans: a plan is an ordered
// sequence of relation accesses, joined left-to-right by the local engine.
// Only the accesses (REST calls) carry price; local joins are free. The
// zero-price relations — local tables, always-empty relations, and market
// relations whose footprint the semantic store already covers — form the
// leftmost prefix (Theorem 2).
#ifndef PAYLESS_CORE_PLAN_H_
#define PAYLESS_CORE_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sql/bound_query.h"

namespace payless::core {

/// How one relation of the query is accessed.
struct AccessSpec {
  enum class Kind {
    kLocal,   // buyer-side table: free
    kEmpty,   // contradictory conditions: no access at all
    kCached,  // market table fully covered by the semantic store: free
    kPlain,   // REST call(s) shaped by the query's own conditions
    kBind,    // bind join: one call (or remainder set) per left binding value
  };

  size_t rel = 0;  // index into BoundQuery::relations
  Kind kind = Kind::kLocal;

  /// kBind: the join edges supplying binding values. Each edge's side
  /// pointing at `rel` names a constrainable column of this relation; the
  /// other side must belong to a relation placed earlier in the plan.
  std::vector<sql::JoinEdge> bind_edges;

  bool used_sqr = false;            // remainder rewriting applied
  double est_rows = 0.0;            // estimated retrieved rows
  double est_bind_values = 0.0;     // kBind: estimated distinct binding values
  int64_t est_transactions = 0;     // estimated price (transactions)
  int64_t est_calls = 0;            // estimated number of REST calls
  /// Federation: the endpoint this access should buy from, chosen against
  /// the per-endpoint menu (empty = single-market deployment / primary).
  std::string buy_site;
  /// Federation: the base-catalog estimate this access carried BEFORE
  /// buy-site repricing (0 when no repricing happened). Savings
  /// attribution replays the repricing under the counterfactual
  /// endpoint's menu to isolate the routing edge from estimate noise.
  int64_t est_base_transactions = 0;

  bool IsZeroPrice() const {
    return kind == Kind::kLocal || kind == Kind::kEmpty ||
           kind == Kind::kCached;
  }
};

const char* AccessKindName(AccessSpec::Kind kind);

/// A complete left-deep plan: accesses in execution order. Rendering lives
/// in obs/explain.h (`obs::RenderPlan`) — the single plan-formatting path
/// shared by EXPLAIN, reports and benches.
struct Plan {
  std::vector<AccessSpec> accesses;
  int64_t est_cost = 0;         // φ(P) under the optimizer's cost model
  double est_result_rows = 0.0; // estimated final join cardinality
};

/// Optimizer instrumentation (Figs. 14 and 15).
struct PlanningCounters {
  size_t evaluated_plans = 0;    // candidate (sub)plans costed
  size_t enumerated_bboxes = 0;  // Algorithm-1 boxes constructed
  size_t kept_bboxes = 0;        // boxes surviving the pruning rules
  /// Plan-template cache outcome for this query: exactly one of the two is
  /// 1 when the cache is enabled (0/0 when bypassed, e.g. Explain).
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
};

/// One query's counterfactual price: what the cheapest plan of a store-
/// less client pinned to one market would cost (obs/savings_accountant.h
/// computes it at plan time).
struct Counterfactual {
  /// Estimated transactions of the store-less plan; -1 = pricing failed
  /// (the query is then excluded from savings accounting, never guessed).
  int64_t total = -1;
  std::map<std::string, int64_t> by_dataset;
  /// Shape signature of the counterfactual plan (see
  /// SavingsAccountant::PlanSignature).
  std::string signature;
  /// The single market endpoint the counterfactual buys everything from —
  /// the cheapest one ("" for a single market). Executed accesses routed
  /// to a different endpoint earn federation_routing savings against this
  /// baseline.
  std::string market;

  bool ok() const { return total >= 0; }
};

}  // namespace payless::core

#endif  // PAYLESS_CORE_PLAN_H_
