// A deliberately naive query evaluator for differential tests. It shares no
// code with the local engine (exec/): every relation is filtered row by row
// with the binder's REST conditions (AttrCondition::Matches) and residual
// predicates (EvalCompare), the relations are joined by nested loops, and
// aggregates are computed directly over the member rows of each group of a
// std::map. Output rows come in no particular order: compare with
// SameResult.
#ifndef PAYLESS_TESTS_NAIVE_ORACLE_H_
#define PAYLESS_TESTS_NAIVE_ORACLE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/compare.h"
#include "common/status.h"
#include "market/rest_call.h"
#include "sql/bound_query.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace payless::naive {

/// All rows of one relation's table (market-hosted or buyer-local);
/// nullptr when the table has no rows anywhere.
using RowsOf =
    std::function<const std::vector<Row>*(const catalog::TableDef& def)>;

namespace internal {

using Tuple = std::vector<const Row*>;  // one row per relation, FROM order

inline const Value& Get(const Tuple& tuple, const sql::BoundColumnRef& ref) {
  return (*tuple[ref.rel])[ref.col];
}

/// The join order: the smallest relation first, then always the smallest
/// one sharing an edge with those already bound; a relation with no edge
/// into the bound set is taken only when no connected one is left.
inline std::vector<size_t> JoinOrder(
    const sql::BoundQuery& q,
    const std::vector<std::vector<const Row*>>& filtered) {
  const size_t n = q.relations.size();
  std::vector<bool> bound(n, false);
  std::vector<size_t> order;
  while (order.size() < n) {
    size_t best = n;
    bool best_connected = false;
    for (size_t rel = 0; rel < n; ++rel) {
      if (bound[rel]) continue;
      bool connected = false;
      for (const sql::JoinEdge& e : q.joins) {
        connected |= (e.left.rel == rel && bound[e.right.rel]) ||
                     (e.right.rel == rel && bound[e.left.rel]);
      }
      const bool better =
          best == n || (connected && !best_connected) ||
          (connected == best_connected &&
           filtered[rel].size() < filtered[best].size());
      if (better) {
        best = rel;
        best_connected = connected;
      }
    }
    bound[best] = true;
    order.push_back(best);
  }
  return order;
}

/// Nested loops: binds order[depth] to each of its rows that equals every
/// already bound relation on every edge between them.
inline void NestedLoops(const sql::BoundQuery& q,
                        const std::vector<std::vector<const Row*>>& filtered,
                        const std::vector<size_t>& order, size_t depth,
                        std::vector<bool>* is_bound, Tuple* tuple,
                        std::vector<Tuple>* out) {
  if (depth == order.size()) {
    out->push_back(*tuple);
    return;
  }
  const size_t rel = order[depth];
  for (const Row* row : filtered[rel]) {
    (*tuple)[rel] = row;
    bool joins = true;
    for (const sql::JoinEdge& e : q.joins) {
      const bool mine = e.left.rel == rel || e.right.rel == rel;
      const size_t other = e.left.rel == rel ? e.right.rel : e.left.rel;
      if (!mine || !(*is_bound)[other]) continue;
      // EvalCompare: NULL never equals anything.
      joins &= EvalCompare(Get(*tuple, e.left), CompareOp::kEq,
                           Get(*tuple, e.right));
    }
    if (!joins) continue;
    (*is_bound)[rel] = true;
    NestedLoops(q, filtered, order, depth + 1, is_bound, tuple, out);
    (*is_bound)[rel] = false;
  }
}

/// One aggregate over the member tuples of one group.
inline Value Aggregate(const sql::BoundSelectItem& item,
                       const std::vector<const Tuple*>& members) {
  if (item.agg_star) return Value(static_cast<int64_t>(members.size()));
  std::vector<Value> values;
  for (const Tuple* t : members) {
    const Value& v = Get(*t, item.column);
    if (!v.is_null()) values.push_back(v);
  }
  if (item.agg == sql::AggFunc::kCount) {
    return Value(static_cast<int64_t>(values.size()));
  }
  if (values.empty()) return Value::Null();
  double sum = 0.0;
  Value min = values[0];
  Value max = values[0];
  for (const Value& v : values) {
    if (v.is_int64() || v.is_double()) sum += v.AsNumeric();
    if (v.Compare(min) < 0) min = v;
    if (v.Compare(max) > 0) max = v;
  }
  switch (item.agg) {
    case sql::AggFunc::kSum:
      return Value(sum);
    case sql::AggFunc::kAvg:
      return Value(sum / static_cast<double>(values.size()));
    case sql::AggFunc::kMin:
      return min;
    default:
      return max;
  }
}

}  // namespace internal

/// Parses, binds and evaluates `sql` over `rows_of`'s tables. The output
/// has one column per select item (SELECT * expands in FROM order); its
/// names and types are not meant to be compared.
inline Result<storage::Table> Evaluate(const catalog::Catalog& catalog,
                                       const std::string& sql,
                                       const std::vector<Value>& params,
                                       const RowsOf& rows_of) {
  using internal::Tuple;
  Result<sql::SelectStmt> stmt = sql::Parse(sql);
  PAYLESS_RETURN_IF_ERROR(stmt.status());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, catalog, params);
  PAYLESS_RETURN_IF_ERROR(bound.status());
  const sql::BoundQuery& q = *bound;
  const size_t n = q.relations.size();

  std::vector<std::vector<const Row*>> filtered(n);
  for (size_t rel = 0; rel < n; ++rel) {
    const sql::BoundRelation& relation = q.relations[rel];
    const std::vector<Row>* rows = rows_of(*relation.def);
    if (rows == nullptr) {
      return Status::NotFound("no rows for '" + relation.def->name + "'");
    }
    if (relation.always_empty) continue;
    for (const Row& row : *rows) {
      bool keep = true;
      for (size_t c = 0; c < relation.conditions.size(); ++c) {
        keep &= relation.conditions[c].Matches(row[c]);
      }
      for (const sql::ResidualPredicate& pred : q.residuals) {
        if (pred.column.rel != rel) continue;
        keep &= EvalCompare(row[pred.column.col], pred.op, pred.literal);
      }
      if (keep) filtered[rel].push_back(&row);
    }
  }

  std::vector<Tuple> tuples;
  std::vector<bool> is_bound(n, false);
  Tuple tuple(n, nullptr);
  internal::NestedLoops(q, filtered, internal::JoinOrder(q, filtered), 0,
                        &is_bound, &tuple, &tuples);

  std::vector<storage::SchemaColumn> cols;
  std::vector<Row> out;
  if (!q.HasAggregates()) {
    std::vector<sql::BoundColumnRef> refs;
    for (const sql::BoundSelectItem& item : q.select) {
      if (item.kind != sql::BoundSelectItem::Kind::kStar) {
        refs.push_back(item.column);
        continue;
      }
      for (size_t rel = 0; rel < n; ++rel) {
        for (size_t c = 0; c < q.relations[rel].def->columns.size(); ++c) {
          refs.push_back({rel, c});
        }
      }
    }
    for (const sql::BoundColumnRef& ref : refs) {
      const catalog::ColumnDef& col =
          q.relations[ref.rel].def->columns[ref.col];
      cols.push_back({"", col.name, col.type});
    }
    for (const Tuple& t : tuples) {
      Row row;
      for (const sql::BoundColumnRef& ref : refs) {
        row.push_back(internal::Get(t, ref));
      }
      out.push_back(std::move(row));
    }
  } else {
    std::map<Row, std::vector<const Tuple*>> groups;
    for (const Tuple& t : tuples) {
      Row key;
      for (const sql::BoundColumnRef& ref : q.group_by) {
        key.push_back(internal::Get(t, ref));
      }
      groups[key].push_back(&t);
    }
    if (q.group_by.empty() && groups.empty()) groups[Row{}];  // one row
    for (const sql::BoundSelectItem& item : q.select) {
      cols.push_back({"", item.output_name, ValueType::kDouble});
    }
    for (const auto& [key, members] : groups) {
      Row row;
      for (const sql::BoundSelectItem& item : q.select) {
        if (item.kind == sql::BoundSelectItem::Kind::kAggregate) {
          row.push_back(internal::Aggregate(item, members));
          continue;
        }
        for (size_t g = 0; g < q.group_by.size(); ++g) {
          if (q.group_by[g] == item.column) {
            row.push_back(key[g]);
            break;
          }
        }
      }
      out.push_back(std::move(row));
    }
  }
  return storage::Table(storage::Schema(std::move(cols)), std::move(out));
}

}  // namespace payless::naive

#endif  // PAYLESS_TESTS_NAIVE_ORACLE_H_
