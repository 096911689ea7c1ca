// Relational operators over materialized tables: the local query engine
// PayLess offloads joins and aggregation to (Fig. 3, steps 6-8). Local
// processing contributes zero price in the paper's cost model, so these
// operators aim for correctness and reasonable asymptotics (hash joins,
// single-pass aggregation), not micro-optimization.
#ifndef PAYLESS_STORAGE_OPS_H_
#define PAYLESS_STORAGE_OPS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace payless::storage {

/// Keeps the given columns, in the given order.
Table Project(const Table& input, const std::vector<size_t>& columns);

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
