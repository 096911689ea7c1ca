#include "storage/table.h"

#include <cassert>
#include <sstream>

namespace payless::storage {

std::optional<size_t> Schema::Find(const std::string& table,
                                   const std::string& name) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const SchemaColumn& col = columns_[i];
    if (col.name != name) continue;
    if (!table.empty() && col.table != table) continue;
    if (found.has_value()) return std::nullopt;  // ambiguous
    found = i;
  }
  return found;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].QualifiedName();
    out += ":";
    out += ValueTypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

void Table::Append(Row row) {
  assert(row.size() == schema_.num_columns());
  rows_.push_back(std::move(row));
}

Status Table::AppendChecked(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    const ValueType expected = schema_.column(i).type;
    const bool numeric_ok =
        (expected == ValueType::kDouble &&
         (row[i].is_int64() || row[i].is_double()));
    if (row[i].type() != expected && !numeric_ok) {
      return Status::InvalidArgument(
          "column '" + schema_.column(i).QualifiedName() + "' expects " +
          ValueTypeName(expected) + ", got " + ValueTypeName(row[i].type()));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << " [" << rows_.size() << " rows]\n";
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    os << "  " << RowToString(rows_[i]) << "\n";
  }
  if (rows_.size() > max_rows) {
    os << "  ... (" << rows_.size() - max_rows << " more)\n";
  }
  return os.str();
}

}  // namespace payless::storage
