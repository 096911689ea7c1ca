// Relational operators over materialized tables: the local query engine
// PayLess offloads joins and aggregation to (Fig. 3, steps 6-8). Local
// processing contributes zero price in the paper's cost model, so these
// operators aim for correctness and reasonable asymptotics (hash joins,
// single-pass aggregation), not micro-optimization.
#ifndef PAYLESS_STORAGE_OPS_H_
#define PAYLESS_STORAGE_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/compare.h"
#include "common/status.h"
#include "storage/table.h"

namespace payless::storage {

/// `column <op> literal` predicate, pre-resolved to a column index.
struct ColumnPredicate {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value literal;

  bool Matches(const Row& row) const {
    return EvalCompare(row[column], op, literal);
  }
};

/// Rows satisfying ALL predicates (conjunction).
Table Filter(const Table& input, const std::vector<ColumnPredicate>& preds);

/// Rows satisfying an arbitrary predicate.
Table FilterFn(const Table& input,
               const std::function<bool(const Row&)>& pred);

/// Keeps the given columns, in the given order.
Table Project(const Table& input, const std::vector<size_t>& columns);

/// Nested-loop join with an arbitrary ON predicate over the concatenated row.
Table ThetaJoin(const Table& left, const Table& right,
                const std::function<bool(const Row&)>& pred);

/// Duplicate elimination over whole rows.
Table Distinct(const Table& input);

/// Appends `more`'s rows (schemas must be arity/type compatible).
Status UnionAll(Table* into, const Table& more);

/// Stable sort by columns, ascending, NULLs first.
Table SortBy(const Table& input, const std::vector<size_t>& columns);

/// Distinct non-NULL values of one column, sorted ascending.
std::vector<Value> DistinctValues(const Table& input, size_t column);

enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc func);

/// One aggregate in the SELECT list. kCount ignores `column` when
/// `count_star` is set. `output_name` names the result column.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  size_t column = 0;
  bool count_star = false;
  std::string output_name;
};

/// GROUP BY `group_columns` with the given aggregates. With no group
/// columns, produces a single global-aggregate row (even over empty input,
/// where COUNT is 0 and the others are NULL). Output schema: group columns
/// first (original names), then one column per aggregate. Groups are emitted
/// in first-seen order.
Table GroupAggregate(const Table& input,
                     const std::vector<size_t>& group_columns,
                     const std::vector<AggSpec>& aggs);

}  // namespace payless::storage

#endif  // PAYLESS_STORAGE_OPS_H_
