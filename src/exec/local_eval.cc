#include "exec/local_eval.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "market/rest_call.h"

namespace payless::exec {

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// Folds one value into a key hash with HashRow's mixing, so a multi-column
/// key is hashed where its values are instead of being copied into a Row.
constexpr size_t kKeySeed = 0x345678;
size_t MixKey(size_t hash, const Value& v) {
  return hash ^ (v.Hash() + 0x9e3779b9 + (hash << 6) + (hash >> 2));
}

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  Value extreme;  // MIN / MAX so far

  void Add(sql::AggFunc func, const Value& v) {
    if (v.is_null()) return;
    ++count;
    switch (func) {
      case sql::AggFunc::kCount:
        break;
      case sql::AggFunc::kSum:
      case sql::AggFunc::kAvg:
        if (v.is_int64() || v.is_double()) sum += v.AsNumeric();
        break;
      case sql::AggFunc::kMin:
        if (extreme.is_null() || v < extreme) extreme = v;
        break;
      case sql::AggFunc::kMax:
        if (extreme.is_null() || v > extreme) extreme = v;
        break;
    }
  }

  Value Finish(sql::AggFunc func) const {
    switch (func) {
      case sql::AggFunc::kCount:
        return Value(count);
      case sql::AggFunc::kSum:
        return count == 0 ? Value::Null() : Value(sum);
      case sql::AggFunc::kAvg:
        return count == 0 ? Value::Null()
                          : Value(sum / static_cast<double>(count));
      case sql::AggFunc::kMin:
      case sql::AggFunc::kMax:
        return extreme;
    }
    return Value::Null();
  }
};

ValueType AggOutputType(sql::AggFunc func, ValueType column_type) {
  switch (func) {
    case sql::AggFunc::kCount:
      return ValueType::kInt64;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      return ValueType::kDouble;
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax:
      return column_type;
  }
  return ValueType::kDouble;
}

/// GROUP BY and the aggregates in one pass over the joined rows. Groups
/// come out in first-seen order, each named by the values of its first
/// joined row; a global aggregate over no rows is still one row (COUNT 0,
/// the others NULL).
Status Aggregate(const sql::BoundQuery& query, const JoinedRows& joined,
                 std::vector<Row>* out) {
  const size_t width = query.select.size();
  for (const sql::BoundSelectItem& item : query.select) {
    if (item.kind == sql::BoundSelectItem::Kind::kStar) {
      return Status::NotSupported("SELECT * cannot mix with aggregates");
    }
    if (item.kind == sql::BoundSelectItem::Kind::kColumn &&
        std::find(query.group_by.begin(), query.group_by.end(),
                  item.column) == query.group_by.end()) {
      return Status::InvalidArgument("selected column '" + item.output_name +
                                     "' is not a grouping column");
    }
  }

  std::vector<uint32_t> group_row;  // each group's first joined row
  std::vector<AggState> states;     // group-major, one per select item
  // Groups sharing a key hash form a chain, newest first.
  std::unordered_map<size_t, uint32_t> newest_group;
  std::vector<uint32_t> older_group;
  const auto same_group = [&](size_t a, size_t b) {
    for (const sql::BoundColumnRef& ref : query.group_by) {
      if (joined.At(a, ref) != joined.At(b, ref)) return false;
    }
    return true;
  };
  for (size_t i = 0; i < joined.num_rows(); ++i) {
    size_t hash = kKeySeed;
    for (const sql::BoundColumnRef& ref : query.group_by) {
      hash = MixKey(hash, joined.At(i, ref));
    }
    const auto it = newest_group.try_emplace(hash, kNone).first;
    uint32_t g = it->second;
    while (g != kNone && !same_group(group_row[g], i)) g = older_group[g];
    if (g == kNone) {
      g = static_cast<uint32_t>(group_row.size());
      group_row.push_back(static_cast<uint32_t>(i));
      older_group.push_back(it->second);
      it->second = g;
      states.resize(states.size() + width);
    }
    AggState* group = &states[g * width];
    for (size_t s = 0; s < width; ++s) {
      const sql::BoundSelectItem& item = query.select[s];
      if (item.kind != sql::BoundSelectItem::Kind::kAggregate) continue;
      if (item.agg_star) {
        ++group[s].count;
      } else {
        group[s].Add(item.agg, joined.At(i, item.column));
      }
    }
  }
  if (query.group_by.empty() && group_row.empty()) {
    group_row.push_back(kNone);  // no column items without GROUP BY
    states.resize(width);
  }

  out->resize(group_row.size());
  for (size_t g = 0; g < group_row.size(); ++g) {
    Row& row = (*out)[g];
    row.reserve(width);
    for (size_t s = 0; s < width; ++s) {
      const sql::BoundSelectItem& item = query.select[s];
      row.push_back(item.kind == sql::BoundSelectItem::Kind::kColumn
                        ? joined.At(group_row[g], item.column)
                        : states[g * width + s].Finish(item.agg));
    }
  }
  return Status::OK();
}

}  // namespace

void JoinedRows::Join(size_t rel, const storage::Table& table,
                      const std::vector<uint32_t>& selected,
                      const std::vector<Key>& keys) {
  assert(!placed(rel));
  const std::vector<Row>& rows = table.rows();
  // Matches as (joined row, position in `selected`), in output order.
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
  if (keys.empty()) {
    left.reserve(num_rows_ * selected.size());
    right.reserve(num_rows_ * selected.size());
    for (size_t l = 0; l < num_rows_; ++l) {
      for (size_t r = 0; r < selected.size(); ++r) {
        left.push_back(static_cast<uint32_t>(l));
        right.push_back(static_cast<uint32_t>(r));
      }
    }
  } else {
    // A side is the running join (x = joined row) or the joining relation
    // (x = position in `selected`).
    const auto key_value = [&](bool joined_side, size_t x,
                               const Key& key) -> const Value& {
      return joined_side ? At(x, key.placed) : rows[selected[x]][key.col];
    };
    // False when a key value is NULL: such a row never matches.
    const auto key_hash = [&](bool joined_side, size_t x, size_t* hash) {
      *hash = kKeySeed;
      for (const Key& key : keys) {
        const Value& v = key_value(joined_side, x, key);
        if (v.is_null()) return false;
        *hash = MixKey(*hash, v);
      }
      return true;
    };
    const bool build_joined = num_rows_ <= selected.size();
    const size_t build_size = build_joined ? num_rows_ : selected.size();
    const size_t probe_size = build_joined ? selected.size() : num_rows_;

    // Build rows sharing a key hash form a chain in insertion order: built
    // back to front, each row is prepended to its chain.
    std::unordered_map<size_t, uint32_t> chain_head;
    chain_head.reserve(build_size);
    std::vector<uint32_t> chain_next(build_size, kNone);
    for (size_t b = build_size; b-- > 0;) {
      size_t hash = 0;
      if (!key_hash(build_joined, b, &hash)) continue;
      const auto [it, inserted] =
          chain_head.try_emplace(hash, static_cast<uint32_t>(b));
      if (!inserted) {
        chain_next[b] = it->second;
        it->second = static_cast<uint32_t>(b);
      }
    }
    for (size_t p = 0; p < probe_size; ++p) {
      size_t hash = 0;
      if (!key_hash(!build_joined, p, &hash)) continue;
      const auto it = chain_head.find(hash);
      if (it == chain_head.end()) continue;
      for (uint32_t b = it->second; b != kNone; b = chain_next[b]) {
        const bool equal =
            std::all_of(keys.begin(), keys.end(), [&](const Key& key) {
              return key_value(build_joined, b, key) ==
                     key_value(!build_joined, p, key);
            });
        if (!equal) continue;
        left.push_back(build_joined ? b : static_cast<uint32_t>(p));
        right.push_back(build_joined ? static_cast<uint32_t>(p) : b);
      }
    }
  }

  for (size_t p = 0; p < tables_.size(); ++p) {
    if (tables_[p] == nullptr) continue;
    std::vector<uint32_t> extended(left.size());
    for (size_t o = 0; o < left.size(); ++o) extended[o] = rows_[p][left[o]];
    rows_[p] = std::move(extended);
  }
  if (rel >= tables_.size()) {
    tables_.resize(rel + 1, nullptr);
    rows_.resize(rel + 1);
  }
  tables_[rel] = &table;
  rows_[rel].resize(right.size());
  for (size_t o = 0; o < right.size(); ++o) rows_[rel][o] = selected[right[o]];
  num_rows_ = left.size();
}

std::vector<uint32_t> FilterRelation(const sql::BoundQuery& query, size_t rel,
                                     const storage::Table& raw) {
  const sql::BoundRelation& relation = query.relations[rel];
  std::vector<uint32_t> kept;
  if (relation.always_empty) return kept;
  const auto matches = [&](const Row& row) {
    for (size_t c = 0; c < relation.conditions.size(); ++c) {
      if (!relation.conditions[c].Matches(row[c])) return false;
    }
    for (const sql::ResidualPredicate& pred : query.residuals) {
      if (pred.column.rel == rel &&
          !EvalCompare(row[pred.column.col], pred.op, pred.literal)) {
        return false;
      }
    }
    return true;
  };
  const std::vector<Row>& rows = raw.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (matches(rows[i])) kept.push_back(static_cast<uint32_t>(i));
  }
  return kept;
}

void JoinRelation(const sql::BoundQuery& query, size_t rel,
                  const storage::Table& table, JoinedRows* joined) {
  std::vector<JoinedRows::Key> keys;
  for (const sql::JoinEdge& e : query.joins) {
    if (e.left.rel == rel && joined->placed(e.right.rel)) {
      keys.push_back({e.right, e.left.col});
    } else if (e.right.rel == rel && joined->placed(e.left.rel)) {
      keys.push_back({e.left, e.right.col});
    }
  }
  joined->Join(rel, table, FilterRelation(query, rel, table), keys);
}

Result<storage::Table> EvaluateLocally(
    const sql::BoundQuery& query,
    const std::vector<storage::Table>& rel_tables) {
  const size_t n = query.relations.size();
  if (rel_tables.size() != n) {
    return Status::InvalidArgument("rel_tables arity mismatch");
  }

  // Greedy order: the first unplaced relation with a join edge into the
  // placed set, else (disconnected) the first unplaced one.
  JoinedRows joined;
  for (size_t round = 0; round < n; ++round) {
    size_t pick = n;
    for (size_t i = 0; i < n && pick == n; ++i) {
      if (joined.placed(i)) continue;
      for (const sql::JoinEdge& e : query.joins) {
        if ((e.left.rel == i && joined.placed(e.right.rel)) ||
            (e.right.rel == i && joined.placed(e.left.rel))) {
          pick = i;
          break;
        }
      }
    }
    for (size_t i = 0; i < n && pick == n; ++i) {
      if (!joined.placed(i)) pick = i;
    }
    assert(pick < n);
    JoinRelation(query, pick, rel_tables[pick], &joined);
  }
  return EvaluateJoined(query, joined);
}

Result<storage::Table> EvaluateJoined(const sql::BoundQuery& query,
                                      const JoinedRows& joined) {
  const bool has_star =
      std::any_of(query.select.begin(), query.select.end(),
                  [](const sql::BoundSelectItem& item) {
                    return item.kind == sql::BoundSelectItem::Kind::kStar;
                  });
  const auto source = [&joined](const sql::BoundColumnRef& ref) {
    return joined.table(ref.rel).schema().column(ref.col);
  };

  // Output columns carry the select-list names, except under SELECT *,
  // whose expansion (and every column beside it) keeps the qualified
  // source names.
  std::vector<storage::SchemaColumn> cols;
  std::vector<Row> rows;
  if (query.HasAggregates()) {
    PAYLESS_RETURN_IF_ERROR(Aggregate(query, joined, &rows));
    for (const sql::BoundSelectItem& item : query.select) {
      ValueType type = ValueType::kInt64;  // COUNT(*) reads no column
      if (!item.agg_star) {
        type = source(item.column).type;
        if (item.kind == sql::BoundSelectItem::Kind::kAggregate) {
          type = AggOutputType(item.agg, type);
        }
      }
      cols.push_back(storage::SchemaColumn{"", item.output_name, type});
    }
  } else {
    // `SELECT *` expands to all columns of all relations in FROM order.
    std::vector<sql::BoundColumnRef> refs;
    for (const sql::BoundSelectItem& item : query.select) {
      if (item.kind == sql::BoundSelectItem::Kind::kStar) {
        for (size_t rel = 0; rel < query.relations.size(); ++rel) {
          for (size_t c = 0; c < query.relations[rel].def->columns.size();
               ++c) {
            refs.push_back({rel, c});
            cols.push_back(source(refs.back()));
          }
        }
        continue;
      }
      refs.push_back(item.column);
      storage::SchemaColumn col = source(item.column);
      if (!has_star) col = {"", item.output_name, col.type};
      cols.push_back(std::move(col));
    }
    rows.resize(joined.num_rows());
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].reserve(refs.size());
      for (const sql::BoundColumnRef& ref : refs) {
        rows[i].push_back(joined.At(i, ref));
      }
    }
  }

  if (!query.order_by.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&query](const Row& a, const Row& b) {
                       for (const sql::BoundOrderItem& key : query.order_by) {
                         const int cmp =
                             a[key.output_column].Compare(b[key.output_column]);
                         if (cmp != 0) return key.ascending ? cmp < 0 : cmp > 0;
                       }
                       return false;
                     });
  }
  return storage::Table(storage::Schema(std::move(cols)), std::move(rows));
}

}  // namespace payless::exec
