// Abstract syntax tree for the PayLess SQL dialect.
//
// The dialect covers the workloads of the paper (Table 1 and the TPC-H-style
// templates): single SELECT blocks, conjunctive WHERE clauses of column/
// literal comparisons and column=column equi-joins (including chained
// `a = b = ?` equality, which appears verbatim in templates Q3-Q5), GROUP BY
// and the five standard aggregates, and `?` parameter markers.
#ifndef PAYLESS_SQL_AST_H_
#define PAYLESS_SQL_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "common/compare.h"
#include "common/value.h"

namespace payless::sql {

/// A possibly-qualified column reference.
struct ColumnRef {
  std::string table;   // empty when unqualified
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

/// Right-hand side of a comparison: a literal, a parameter marker, or
/// another column (making the comparison a join predicate when op is `=`).
struct Operand {
  enum class Kind { kLiteral, kParam, kColumn };

  Kind kind = Kind::kLiteral;
  Value literal;
  size_t param_index = 0;  // ordinal of the `?` in the statement, from 0
  ColumnRef column;

  static Operand Lit(Value v) {
    Operand o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }
  static Operand Param(size_t index) {
    Operand o;
    o.kind = Kind::kParam;
    o.param_index = index;
    return o;
  }
  static Operand Col(ColumnRef ref) {
    Operand o;
    o.kind = Kind::kColumn;
    o.column = std::move(ref);
    return o;
  }

  std::string ToString() const;
};

/// One conjunct of the WHERE clause: `lhs op rhs`.
struct Comparison {
  ColumnRef lhs;
  CompareOp op = CompareOp::kEq;
  Operand rhs;

  std::string ToString() const;
};

enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc func);

/// One item of the SELECT list: `*`, a column, or an aggregate.
struct SelectItem {
  enum class Kind { kStar, kColumn, kAggregate };

  Kind kind = Kind::kColumn;
  ColumnRef column;                       // kColumn, or kAggregate argument
  AggFunc agg = AggFunc::kCount;
  bool agg_star = false;                  // COUNT(*)
  std::string alias;                      // optional AS name

  std::string ToString() const;
};

/// ORDER BY key. The referenced column must be an OUTPUT column of the
/// query (a select-list alias or column name).
struct OrderItem {
  ColumnRef column;
  bool ascending = true;
};

/// EXPLAIN prefix of a statement. kPlain renders the chosen plan without
/// executing (or spending) anything; kAnalyze executes the query and joins
/// the measured per-access actuals into the rendered plan.
enum class ExplainMode { kNone, kPlain, kAnalyze };

/// A parsed SELECT statement (optionally an EXPLAIN of one).
struct SelectStmt {
  ExplainMode explain = ExplainMode::kNone;
  std::vector<SelectItem> select;
  std::vector<std::string> from;          // table names
  std::vector<Comparison> where;          // conjunction
  std::vector<ColumnRef> group_by;
  std::vector<OrderItem> order_by;
  size_t num_params = 0;                  // number of `?` markers

  std::string ToString() const;
};

}  // namespace payless::sql

#endif  // PAYLESS_SQL_AST_H_
