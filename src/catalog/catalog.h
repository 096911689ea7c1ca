// Catalog: the metadata PayLess obtains when registering with the data
// market (Fig. 2) plus the schemas of the buyer's local tables.
//
// For each market table the catalog records the binding pattern (which
// attributes MUST be bound in a REST call, which MAY be, and which are
// output-only), the published "basic statistics" — attribute domains and
// table cardinality (§2.1) — and the dataset's pricing terms (price per
// transaction `p`, tuples per transaction `t`).
#ifndef PAYLESS_CATALOG_CATALOG_H_
#define PAYLESS_CATALOG_CATALOG_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/value.h"

namespace payless::catalog {

/// Role of an attribute in a table's binding pattern (notation of [27],
/// extended in §1): kBound attributes must be given a value/range in every
/// REST call; kFree attributes may be constrained; kOutput attributes are
/// result-only and can never be constrained.
enum class BindingKind {
  kBound,
  kFree,
  kOutput,
};

/// Published domain of a constrainable attribute. Numeric domains are int64
/// lattice ranges (dates in YYYYMMDD, ranks, keys); categorical domains are
/// explicit value lists, dictionary-encoded so region geometry can treat
/// every dimension as an integer interval.
class AttrDomain {
 public:
  enum class Kind { kNone, kNumeric, kCategorical };

  AttrDomain() : kind_(Kind::kNone) {}

  static AttrDomain Numeric(int64_t lo, int64_t hi);
  static AttrDomain Categorical(std::vector<std::string> categories);

  Kind kind() const { return kind_; }
  bool is_numeric() const { return kind_ == Kind::kNumeric; }
  bool is_categorical() const { return kind_ == Kind::kCategorical; }

  /// Full extent as a lattice interval: the numeric range, or [0, n-1] of
  /// category codes. Empty interval when kNone.
  Interval ToInterval() const;

  /// Number of distinct values in the domain (0 for kNone).
  int64_t size() const { return ToInterval().Width(); }

  const std::vector<std::string>& categories() const { return categories_; }

  /// Lattice coordinate of a value: identity for numerics, dictionary code
  /// for categoricals. nullopt if the value is outside the domain.
  std::optional<int64_t> Encode(const Value& v) const;

  /// Inverse of Encode (asserts the coordinate is in range).
  Value Decode(int64_t code) const;

 private:
  Kind kind_;
  Interval range_;
  std::vector<std::string> categories_;
  std::map<std::string, int64_t> category_codes_;
};

/// One column of a table: SQL name/type plus its binding-pattern role and
/// (for constrainable columns) the published domain.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kInt64;
  BindingKind binding = BindingKind::kOutput;
  AttrDomain domain;

  static ColumnDef Bound(std::string name, ValueType type, AttrDomain domain) {
    return ColumnDef{std::move(name), type, BindingKind::kBound,
                     std::move(domain)};
  }
  static ColumnDef Free(std::string name, ValueType type, AttrDomain domain) {
    return ColumnDef{std::move(name), type, BindingKind::kFree,
                     std::move(domain)};
  }
  static ColumnDef Output(std::string name, ValueType type) {
    return ColumnDef{std::move(name), type, BindingKind::kOutput,
                     AttrDomain()};
  }
};

/// A table visible to PayLess: either hosted in the data market (priced,
/// access restricted by the binding pattern) or local to the buyer (free).
struct TableDef {
  std::string name;
  std::string dataset;  // empty for local tables
  bool is_local = false;
  std::vector<ColumnDef> columns;
  int64_t cardinality = 0;  // published basic statistic (§2.1)

  std::optional<size_t> ColumnIndex(const std::string& column_name) const;
  const ColumnDef& column(size_t i) const { return columns[i]; }
  size_t num_columns() const { return columns.size(); }

  /// Indices of constrainable columns (kBound or kFree), in column order.
  /// These are the dimensions of the table's query-region space.
  std::vector<size_t> ConstrainableColumns() const;

  /// Indices of kBound columns — every REST call must bind these.
  std::vector<size_t> BoundColumns() const;

  /// True iff the table can be downloaded wholesale with one unconstrained
  /// call, i.e. the binding pattern has no kBound attribute (§1).
  bool FullyDownloadable() const { return BoundColumns().empty(); }

  /// The full region of the table's query space: one interval per
  /// constrainable column, spanning the whole domain.
  Box FullRegion() const;
};

/// Pricing terms of one dataset (§2.1): a transaction is a page of
/// `tuples_per_transaction` tuples and costs `price_per_transaction`.
struct DatasetDef {
  std::string name;
  double price_per_transaction = 1.0;
  int64_t tuples_per_transaction = 100;
};

/// Name-keyed registry of datasets and tables.
class Catalog {
 public:
  Status RegisterDataset(DatasetDef dataset);
  Status RegisterTable(TableDef table);

  const TableDef* FindTable(const std::string& name) const;
  const DatasetDef* FindDataset(const std::string& name) const;

  /// Dataset pricing for a market table; nullptr for local tables.
  const DatasetDef* DatasetOf(const TableDef& table) const;

  std::vector<std::string> TableNames() const;

  /// Replaces the published cardinality (used when generators resize data).
  Status SetCardinality(const std::string& table, int64_t cardinality);

  /// Replaces an already-registered dataset's pricing terms. Used by
  /// federation endpoints: an endpoint's catalog is a copy of the base
  /// catalog with its own menu (price / page size) for shared datasets.
  Status OverrideDataset(DatasetDef dataset);

 private:
  std::map<std::string, TableDef> tables_;
  std::map<std::string, DatasetDef> datasets_;
};

}  // namespace payless::catalog

#endif  // PAYLESS_CATALOG_CATALOG_H_
