// Bound (catalog-resolved) query representation: the optimizer's input.
//
// The binder classifies every WHERE conjunct:
//   - column-vs-literal predicates on constrainable market attributes become
//     per-relation REST-call conditions (they shape the relation's query
//     region in the semantic store's space);
//   - `a = b` across relations become join edges (candidate bind-join paths);
//   - everything else (NE, predicates on output-only attributes, predicates
//     on local tables) becomes a residual predicate applied by the local
//     engine after retrieval.
#ifndef PAYLESS_SQL_BOUND_QUERY_H_
#define PAYLESS_SQL_BOUND_QUERY_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/compare.h"
#include "common/geometry.h"
#include "market/rest_call.h"
#include "sql/ast.h"

namespace payless::sql {

/// A column of one of the query's relations, by position.
struct BoundColumnRef {
  size_t rel = 0;
  size_t col = 0;

  bool operator==(const BoundColumnRef& other) const {
    return rel == other.rel && col == other.col;
  }
};

/// Predicate the local engine applies after retrieval.
struct ResidualPredicate {
  BoundColumnRef column;
  CompareOp op = CompareOp::kEq;
  Value literal;
};

/// One FROM-list relation with the literal conditions pushed into it.
struct BoundRelation {
  const catalog::TableDef* def = nullptr;
  /// Per-column REST conditions implied by the query's literal predicates
  /// (kNone where unconstrained). For local relations these are still
  /// recorded — the local engine applies them as scan filters.
  std::vector<market::AttrCondition> conditions;
  /// Set when the conditions are contradictory (e.g. Country = 'US' AND
  /// Country = 'DE'): the relation, and thus the query, is empty.
  bool always_empty = false;

  bool is_market() const { return !def->is_local; }

  /// The relation's query footprint over its constrainable-attribute space.
  Box QueryRegion() const;
};

/// Equi-join edge between two relations.
struct JoinEdge {
  BoundColumnRef left;
  BoundColumnRef right;
};

/// Resolved SELECT-list item.
struct BoundSelectItem {
  enum class Kind { kStar, kColumn, kAggregate };

  Kind kind = Kind::kColumn;
  BoundColumnRef column;  // kColumn, or aggregate argument
  AggFunc agg = AggFunc::kCount;
  bool agg_star = false;  // COUNT(*)
  std::string output_name;
};

/// ORDER BY key resolved to an output-column position.
struct BoundOrderItem {
  size_t output_column = 0;
  bool ascending = true;
};

struct BoundQuery {
  const catalog::Catalog* catalog = nullptr;
  /// Carried over from the statement: kPlain / kAnalyze route the query
  /// through the EXPLAIN renderer instead of (or in addition to) execution.
  ExplainMode explain = ExplainMode::kNone;
  std::vector<BoundRelation> relations;
  std::vector<JoinEdge> joins;
  std::vector<ResidualPredicate> residuals;
  std::vector<BoundSelectItem> select;
  std::vector<BoundColumnRef> group_by;
  std::vector<BoundOrderItem> order_by;

  bool HasAggregates() const;

  /// Join edges incident to relation `rel`.
  std::vector<JoinEdge> JoinsOf(size_t rel) const;

  std::string ToString() const;
};

/// Resolves `stmt` against the catalog, substituting `params` for the `?`
/// markers (arity- and type-checked).
Result<BoundQuery> Bind(const SelectStmt& stmt, const catalog::Catalog& cat,
                        const std::vector<Value>& params);

}  // namespace payless::sql

#endif  // PAYLESS_SQL_BOUND_QUERY_H_
