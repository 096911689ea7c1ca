// In-memory relational tables for the buyer-side DBMS (the engine PayLess
// offloads local processing to, steps 6-8 of Fig. 3) and for the data-market
// simulator's hosted datasets.
#ifndef PAYLESS_STORAGE_TABLE_H_
#define PAYLESS_STORAGE_TABLE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace payless::storage {

/// A column in a (possibly joined) schema. `table` qualifies the column so
/// join outputs can carry both `Station.Country` and `Weather.Country`.
struct SchemaColumn {
  std::string table;
  std::string name;
  ValueType type = ValueType::kInt64;

  std::string QualifiedName() const {
    return table.empty() ? name : table + "." + name;
  }
};

/// Ordered column list with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<SchemaColumn> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const SchemaColumn& column(size_t i) const { return columns_[i]; }
  const std::vector<SchemaColumn>& columns() const { return columns_; }

  /// Finds a column by (optionally qualified) name. An unqualified name
  /// matches any table; returns nullopt when missing or ambiguous.
  std::optional<size_t> Find(const std::string& table,
                             const std::string& name) const;
  std::optional<size_t> Find(const std::string& name) const {
    return Find("", name);
  }

  std::string ToString() const;

 private:
  std::vector<SchemaColumn> columns_;
};

/// Row-store table: a schema plus materialized rows. The local engine joins
/// fetched Tables late-materialized (exec::JoinedRows holds row indices into
/// them) and builds one new Table only for the query result.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  void Append(Row row);
  Status AppendChecked(Row row);  // validates arity and value types

  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace payless::storage

#endif  // PAYLESS_STORAGE_TABLE_H_
