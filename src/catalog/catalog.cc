#include "catalog/catalog.h"

#include <cassert>

namespace payless::catalog {

AttrDomain AttrDomain::Numeric(int64_t lo, int64_t hi) {
  AttrDomain d;
  d.kind_ = Kind::kNumeric;
  d.range_ = Interval(lo, hi);
  assert(!d.range_.empty());
  return d;
}

AttrDomain AttrDomain::Categorical(std::vector<std::string> categories) {
  AttrDomain d;
  d.kind_ = Kind::kCategorical;
  d.categories_ = std::move(categories);
  assert(!d.categories_.empty());
  for (size_t i = 0; i < d.categories_.size(); ++i) {
    d.category_codes_[d.categories_[i]] = static_cast<int64_t>(i);
  }
  assert(d.category_codes_.size() == d.categories_.size() &&
         "duplicate category");
  return d;
}

Interval AttrDomain::ToInterval() const {
  switch (kind_) {
    case Kind::kNone:
      return Interval::Empty();
    case Kind::kNumeric:
      return range_;
    case Kind::kCategorical:
      return Interval(0, static_cast<int64_t>(categories_.size()) - 1);
  }
  return Interval::Empty();
}

std::optional<int64_t> AttrDomain::Encode(const Value& v) const {
  if (kind_ == Kind::kNumeric) {
    if (!v.is_int64()) return std::nullopt;
    const int64_t code = v.AsInt64();
    if (!range_.Contains(code)) return std::nullopt;
    return code;
  }
  if (kind_ == Kind::kCategorical) {
    if (!v.is_string()) return std::nullopt;
    const auto it = category_codes_.find(v.AsString());
    if (it == category_codes_.end()) return std::nullopt;
    return it->second;
  }
  return std::nullopt;
}

Value AttrDomain::Decode(int64_t code) const {
  if (kind_ == Kind::kNumeric) {
    assert(range_.Contains(code));
    return Value(code);
  }
  assert(kind_ == Kind::kCategorical);
  assert(code >= 0 && code < static_cast<int64_t>(categories_.size()));
  return Value(categories_[static_cast<size_t>(code)]);
}

std::optional<size_t> TableDef::ColumnIndex(
    const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return i;
  }
  return std::nullopt;
}

std::vector<size_t> TableDef::ConstrainableColumns() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].binding != BindingKind::kOutput) out.push_back(i);
  }
  return out;
}

std::vector<size_t> TableDef::BoundColumns() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].binding == BindingKind::kBound) out.push_back(i);
  }
  return out;
}

Box TableDef::FullRegion() const {
  std::vector<Interval> dims;
  for (size_t col : ConstrainableColumns()) {
    dims.push_back(columns[col].domain.ToInterval());
  }
  return Box(std::move(dims));
}

Status Catalog::RegisterDataset(DatasetDef dataset) {
  if (dataset.tuples_per_transaction <= 0) {
    return Status::InvalidArgument("dataset '" + dataset.name +
                                   "': tuples_per_transaction must be > 0");
  }
  if (dataset.price_per_transaction < 0) {
    return Status::InvalidArgument("dataset '" + dataset.name +
                                   "': negative price");
  }
  const std::string name = dataset.name;
  if (!datasets_.emplace(name, std::move(dataset)).second) {
    return Status::InvalidArgument("dataset '" + name +
                                   "' already registered");
  }
  return Status::OK();
}

Status Catalog::RegisterTable(TableDef table) {
  if (table.columns.empty()) {
    return Status::InvalidArgument("table '" + table.name + "' has no columns");
  }
  if (!table.is_local && datasets_.find(table.dataset) == datasets_.end()) {
    return Status::InvalidArgument("table '" + table.name +
                                   "' references unknown dataset '" +
                                   table.dataset + "'");
  }
  for (const ColumnDef& col : table.columns) {
    if (col.binding != BindingKind::kOutput &&
        col.domain.kind() == AttrDomain::Kind::kNone) {
      return Status::InvalidArgument(
          "table '" + table.name + "': constrainable column '" + col.name +
          "' needs a published domain");
    }
  }
  const std::string name = table.name;
  if (!tables_.emplace(name, std::move(table)).second) {
    return Status::InvalidArgument("table '" + name + "' already registered");
  }
  return Status::OK();
}

const TableDef* Catalog::FindTable(const std::string& name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const DatasetDef* Catalog::FindDataset(const std::string& name) const {
  const auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : &it->second;
}

const DatasetDef* Catalog::DatasetOf(const TableDef& table) const {
  if (table.is_local) return nullptr;
  return FindDataset(table.dataset);
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

Status Catalog::OverrideDataset(DatasetDef dataset) {
  if (dataset.tuples_per_transaction <= 0) {
    return Status::InvalidArgument("dataset '" + dataset.name +
                                   "': tuples_per_transaction must be > 0");
  }
  if (dataset.price_per_transaction < 0) {
    return Status::InvalidArgument("dataset '" + dataset.name +
                                   "': negative price");
  }
  const auto it = datasets_.find(dataset.name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + dataset.name + "' not registered");
  }
  it->second = std::move(dataset);
  return Status::OK();
}

Status Catalog::SetCardinality(const std::string& table, int64_t cardinality) {
  const auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table + "' not registered");
  }
  it->second.cardinality = cardinality;
  return Status::OK();
}

}  // namespace payless::catalog
