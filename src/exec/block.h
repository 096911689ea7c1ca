// Block-vectorized columnar kernel for buyer-side local evaluation: the one
// join implementation behind the execution engine, EvaluateLocally and the
// reference oracle.
//
// Rather than materializing every intermediate tuple as its own heap-
// allocated Row, the kernel threads fixed-capacity blocks of column vectors
// through filter -> join -> project:
//
//   - a ColumnTable is a sequence of Blocks; each Block holds one
//     std::vector<Value> per column, at most kBlockCapacity rows;
//   - filters evaluate one predicate column at a time over a selection
//     vector and compact it (the classic vectorized-scan idiom), touching
//     only the columns a predicate mentions;
//   - joins collect matching (left row, right row) index pairs and then
//     gather the output column by column — no per-output-row allocation;
//   - projection is a column gather.
//
// Everything is order-preserving and deterministic: BlockHashJoin builds on
// the smaller side, skips NULL keys (SQL semantics) and emits matches in
// probe order x build-insertion order, so result rows, row order and every
// downstream aggregate are a pure function of the inputs.
#ifndef PAYLESS_EXEC_BLOCK_H_
#define PAYLESS_EXEC_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace payless::exec {

inline constexpr size_t kBlockShift = 10;
inline constexpr size_t kBlockCapacity = size_t{1} << kBlockShift;  // 1024
inline constexpr size_t kBlockMask = kBlockCapacity - 1;

/// One fixed-capacity batch of rows in columnar layout: `columns[c][i]` is
/// row i's value of column c; every column holds exactly `num_rows` values.
struct Block {
  explicit Block(size_t num_columns) : columns(num_columns) {}
  std::vector<std::vector<Value>> columns;
  size_t num_rows = 0;
};

/// A columnar table: fixed width, rows split across full kBlockCapacity
/// blocks (only the last block may be partial, so global row index i lives
/// at block i >> kBlockShift, offset i & kBlockMask). Supports the
/// zero-column table — the join pipeline's unit element still counts rows.
class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(size_t num_columns) : num_columns_(num_columns) {}

  size_t num_columns() const { return num_columns_; }
  size_t num_rows() const { return num_rows_; }

  const Value& At(size_t row, size_t col) const {
    return blocks_[row >> kBlockShift].columns[col][row & kBlockMask];
  }
  Value& At(size_t row, size_t col) {
    return blocks_[row >> kBlockShift].columns[col][row & kBlockMask];
  }

  /// Appends `additional` default-constructed (NULL) rows; the caller fills
  /// them through At(). This is the gather-write primitive: grow once per
  /// output batch, then write column by column.
  void Grow(size_t additional);

  const std::vector<Block>& blocks() const { return blocks_; }

 private:
  size_t num_columns_ = 0;
  size_t num_rows_ = 0;
  std::vector<Block> blocks_;
};

/// Row-major -> columnar (block at a time).
ColumnTable ColumnsFromRows(const std::vector<Row>& rows, size_t num_columns);

/// Columnar -> row-major, preserving order.
std::vector<Row> RowsFromColumns(const ColumnTable& table);

/// Hash equi-join on `keys` (left column, right column) pairs: builds on
/// the smaller side, NULL keys never match, output in probe order x
/// build-insertion order; with empty keys it degenerates to BlockCartesian.
/// Output width = left width + right width, left columns first.
ColumnTable BlockHashJoin(const ColumnTable& left, const ColumnTable& right,
                          const std::vector<std::pair<size_t, size_t>>& keys);

/// Cross product, left-major order.
ColumnTable BlockCartesian(const ColumnTable& left, const ColumnTable& right);

/// Column gather: output column j is input column `columns[j]`.
ColumnTable ProjectColumns(const ColumnTable& table,
                           const std::vector<size_t>& columns);

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_BLOCK_H_
