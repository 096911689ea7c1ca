#include "exec/block.h"

#include <unordered_map>

namespace payless::exec {

void ColumnTable::Grow(size_t additional) {
  const size_t target = num_rows_ + additional;
  while (num_rows_ < target) {
    if (blocks_.empty() || blocks_.back().num_rows == kBlockCapacity) {
      blocks_.emplace_back(num_columns_);
    }
    Block& block = blocks_.back();
    const size_t add =
        std::min(kBlockCapacity - block.num_rows, target - num_rows_);
    for (std::vector<Value>& column : block.columns) {
      column.resize(block.num_rows + add);
    }
    block.num_rows += add;
    num_rows_ += add;
  }
}

ColumnTable ColumnsFromRows(const std::vector<Row>& rows,
                            size_t num_columns) {
  ColumnTable out(num_columns);
  out.Grow(rows.size());
  for (size_t c = 0; c < num_columns; ++c) {
    for (size_t i = 0; i < rows.size(); ++i) out.At(i, c) = rows[i][c];
  }
  return out;
}

std::vector<Row> RowsFromColumns(const ColumnTable& table) {
  std::vector<Row> rows(table.num_rows());
  size_t base = 0;
  for (const Block& block : table.blocks()) {
    for (size_t i = 0; i < block.num_rows; ++i) {
      rows[base + i].reserve(table.num_columns());
    }
    for (const std::vector<Value>& column : block.columns) {
      for (size_t i = 0; i < block.num_rows; ++i) {
        rows[base + i].push_back(column[i]);
      }
    }
    base += block.num_rows;
  }
  return rows;
}

namespace {

/// Gathers (left row, right row) index pairs into a fresh (left ++ right)
/// wide table, one output column at a time.
ColumnTable GatherPairs(const ColumnTable& left, const ColumnTable& right,
                        const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  const size_t lw = left.num_columns();
  const size_t rw = right.num_columns();
  ColumnTable out(lw + rw);
  out.Grow(pairs.size());
  for (size_t c = 0; c < lw; ++c) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      out.At(i, c) = left.At(pairs[i].first, c);
    }
  }
  for (size_t c = 0; c < rw; ++c) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      out.At(i, lw + c) = right.At(pairs[i].second, c);
    }
  }
  return out;
}

}  // namespace

ColumnTable BlockHashJoin(const ColumnTable& left, const ColumnTable& right,
                          const std::vector<std::pair<size_t, size_t>>& keys) {
  if (keys.empty()) return BlockCartesian(left, right);

  // Build on the smaller side; probe with the larger.
  const bool build_left = left.num_rows() <= right.num_rows();
  const ColumnTable& build = build_left ? left : right;
  const ColumnTable& probe = build_left ? right : left;

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  if (keys.size() == 1) {
    // Single-column key (the overwhelmingly common case): hash the Value
    // directly instead of materializing a one-element Row per input row.
    const size_t build_col = build_left ? keys[0].first : keys[0].second;
    const size_t probe_col = build_left ? keys[0].second : keys[0].first;
    std::unordered_map<Value, std::vector<uint32_t>, ValueHasher> hash_table;
    for (size_t i = 0; i < build.num_rows(); ++i) {
      const Value& key = build.At(i, build_col);
      if (key.is_null()) continue;
      hash_table[key].push_back(static_cast<uint32_t>(i));
    }
    for (size_t p = 0; p < probe.num_rows(); ++p) {
      const Value& key = probe.At(p, probe_col);
      if (key.is_null()) continue;
      const auto it = hash_table.find(key);
      if (it == hash_table.end()) continue;
      for (const uint32_t b : it->second) {
        const uint32_t l = build_left ? b : static_cast<uint32_t>(p);
        const uint32_t r = build_left ? static_cast<uint32_t>(p) : b;
        pairs.emplace_back(l, r);
      }
    }
    return GatherPairs(left, right, pairs);
  }

  const auto key_of = [&keys](const ColumnTable& table, size_t row,
                              bool from_left) {
    Row key;
    key.reserve(keys.size());
    for (const auto& [lc, rc] : keys) {
      key.push_back(table.At(row, from_left ? lc : rc));
    }
    return key;
  };
  const auto has_null = [](const Row& key) {
    for (const Value& v : key) {
      if (v.is_null()) return true;
    }
    return false;
  };

  std::unordered_map<Row, std::vector<uint32_t>, RowHasher> hash_table;
  for (size_t i = 0; i < build.num_rows(); ++i) {
    Row key = key_of(build, i, build_left);
    if (has_null(key)) continue;
    hash_table[std::move(key)].push_back(static_cast<uint32_t>(i));
  }

  // Probe in row order, emit matches in build-insertion order (the same
  // order as the single-key path above).
  for (size_t p = 0; p < probe.num_rows(); ++p) {
    Row key = key_of(probe, p, !build_left);
    if (has_null(key)) continue;
    const auto it = hash_table.find(key);
    if (it == hash_table.end()) continue;
    for (const uint32_t b : it->second) {
      const uint32_t l = build_left ? b : static_cast<uint32_t>(p);
      const uint32_t r = build_left ? static_cast<uint32_t>(p) : b;
      pairs.emplace_back(l, r);
    }
  }
  return GatherPairs(left, right, pairs);
}

ColumnTable BlockCartesian(const ColumnTable& left, const ColumnTable& right) {
  const size_t lw = left.num_columns();
  const size_t rw = right.num_columns();
  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();
  ColumnTable out(lw + rw);
  out.Grow(ln * rn);
  for (size_t c = 0; c < lw; ++c) {
    size_t o = 0;
    for (size_t i = 0; i < ln; ++i) {
      const Value& v = left.At(i, c);
      for (size_t j = 0; j < rn; ++j) out.At(o++, c) = v;
    }
  }
  for (size_t c = 0; c < rw; ++c) {
    size_t o = 0;
    for (size_t i = 0; i < ln; ++i) {
      for (size_t j = 0; j < rn; ++j) out.At(o++, lw + c) = right.At(j, c);
    }
  }
  return out;
}

ColumnTable ProjectColumns(const ColumnTable& table,
                           const std::vector<size_t>& columns) {
  ColumnTable out(columns.size());
  out.Grow(table.num_rows());
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t i = 0; i < table.num_rows(); ++i) {
      out.At(i, c) = table.At(i, columns[c]);
    }
  }
  return out;
}

}  // namespace payless::exec
