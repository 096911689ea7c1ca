#include "sql/ast.h"

#include <sstream>

namespace payless::sql {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

std::string Operand::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kParam:
      return "?" + std::to_string(param_index);
    case Kind::kColumn:
      return column.ToString();
  }
  return "?";
}

std::string Comparison::ToString() const {
  return lhs.ToString() + " " + CompareOpName(op) + " " + rhs.ToString();
}

std::string SelectItem::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kStar:
      out = "*";
      break;
    case Kind::kColumn:
      out = column.ToString();
      break;
    case Kind::kAggregate:
      out = std::string(AggFuncName(agg)) + "(" +
            (agg_star ? "*" : column.ToString()) + ")";
      break;
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::string SelectStmt::ToString() const {
  std::ostringstream os;
  if (explain == ExplainMode::kPlain) os << "EXPLAIN ";
  if (explain == ExplainMode::kAnalyze) os << "EXPLAIN ANALYZE ";
  os << "SELECT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) os << ", ";
    os << select[i].ToString();
  }
  os << " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) os << ", ";
    os << from[i];
  }
  if (!where.empty()) {
    os << " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) os << " AND ";
      os << where[i].ToString();
    }
  }
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i].ToString();
    }
  }
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by[i].column.ToString();
      if (!order_by[i].ascending) os << " DESC";
    }
  }
  return os.str();
}

}  // namespace payless::sql
