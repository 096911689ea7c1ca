#include "storage/ops.h"

#include <cassert>
#include <unordered_map>

namespace payless::storage {

Table Project(const Table& input, const std::vector<size_t>& columns) {
  std::vector<SchemaColumn> cols;
  cols.reserve(columns.size());
  for (size_t c : columns) {
    assert(c < input.schema().num_columns());
    cols.push_back(input.schema().column(c));
  }
  Table out{Schema(std::move(cols))};
  for (const Row& row : input.rows()) {
    Row projected;
    projected.reserve(columns.size());
    for (size_t c : columns) projected.push_back(row[c]);
    out.Append(std::move(projected));
  }
  return out;
}

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

namespace {

// Running state for one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  Value min;
  Value max;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_int64() || v.is_double()) sum += v.AsNumeric();
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
  }

  Value Finish(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return Value(count);
      case AggFunc::kSum:
        return count == 0 ? Value::Null() : Value(sum);
      case AggFunc::kAvg:
        return count == 0 ? Value::Null()
                          : Value(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

ValueType AggOutputType(const AggSpec& spec, const Schema& input) {
  switch (spec.func) {
    case AggFunc::kCount:
      return ValueType::kInt64;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      return ValueType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return spec.count_star ? ValueType::kInt64
                             : input.column(spec.column).type;
  }
  return ValueType::kDouble;
}

}  // namespace

Table GroupAggregate(const Table& input,
                     const std::vector<size_t>& group_columns,
                     const std::vector<AggSpec>& aggs) {
  std::vector<SchemaColumn> out_cols;
  for (size_t c : group_columns) out_cols.push_back(input.schema().column(c));
  for (const AggSpec& spec : aggs) {
    std::string name = spec.output_name;
    if (name.empty()) {
      name = std::string(AggFuncName(spec.func)) + "(" +
             (spec.count_star ? "*"
                              : input.schema().column(spec.column).name) +
             ")";
    }
    out_cols.push_back(SchemaColumn{"", name, AggOutputType(spec, input.schema())});
  }
  Table out{Schema(std::move(out_cols))};

  std::unordered_map<Row, size_t, RowHasher> group_index;
  std::vector<Row> group_keys;
  std::vector<std::vector<AggState>> states;

  for (const Row& row : input.rows()) {
    Row key;
    key.reserve(group_columns.size());
    for (size_t c : group_columns) key.push_back(row[c]);
    const auto [it, inserted] = group_index.emplace(key, group_keys.size());
    if (inserted) {
      group_keys.push_back(std::move(key));
      states.emplace_back(aggs.size());
    }
    std::vector<AggState>& group_states = states[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].func == AggFunc::kCount && aggs[a].count_star) {
        ++group_states[a].count;
      } else {
        group_states[a].Add(row[aggs[a].column]);
      }
    }
  }

  // SQL semantics: global aggregation over an empty input still yields one
  // row (COUNT = 0, others NULL).
  if (group_columns.empty() && group_keys.empty()) {
    group_keys.emplace_back();
    states.emplace_back(aggs.size());
  }

  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row row = group_keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(states[g][a].Finish(aggs[a].func));
    }
    out.Append(std::move(row));
  }
  return out;
}

}  // namespace payless::storage
