#include "exec/download_all.h"

#include <unordered_set>

#include "exec/local_eval.h"
#include "market/rest_call.h"
#include "sql/parser.h"

namespace payless::exec {

Status DownloadAllClient::EnsureDownloaded(const std::string& table) {
  if (downloaded_.count(table) > 0) return Status::OK();
  const catalog::TableDef* def = catalog_->FindTable(table);
  if (def == nullptr) return Status::NotFound("unknown table '" + table + "'");
  if (def->is_local) return Status::OK();

  PAYLESS_RETURN_IF_ERROR(db_.CreateTable(*def));
  const std::vector<size_t> bound = def->BoundColumns();

  std::vector<market::RestCall> calls;
  if (bound.empty()) {
    calls.push_back(market::RestCall::Unconstrained(*def));
  } else {
    // Enumerate the bound attributes' domains. Numeric bound attributes
    // accept their whole domain as one explicit range; categorical bound
    // attributes need one call per value.
    calls.push_back(market::RestCall::Unconstrained(*def));
    for (const size_t col : bound) {
      const catalog::AttrDomain& domain = def->columns[col].domain;
      std::vector<market::RestCall> expanded;
      for (const market::RestCall& base : calls) {
        if (domain.is_numeric()) {
          const Interval range = domain.ToInterval();
          market::RestCall call = base;
          call.conditions[col] =
              market::AttrCondition::Range(range.lo, range.hi);
          expanded.push_back(std::move(call));
        } else {
          for (const std::string& value : domain.categories()) {
            market::RestCall call = base;
            call.conditions[col] = market::AttrCondition::Point(Value(value));
            expanded.push_back(std::move(call));
          }
        }
      }
      calls = std::move(expanded);
    }
  }

  // Resume-safe: a prior attempt may have inserted a prefix of the calls'
  // rows before failing mid-download (the table is only marked `downloaded_`
  // after the LAST call lands). Hosted datasets are sets, so row content is
  // identity — seed a dedupe set with whatever is already mirrored and skip
  // re-inserting it, making a retried download idempotent while still
  // keeping every successfully fetched page across attempts.
  std::unordered_set<Row, RowHasher> have;
  if (const storage::Table* existing = db_.FindTable(table)) {
    for (const Row& row : existing->rows()) have.insert(row);
  }

  for (const market::RestCall& call : calls) {
    Result<market::CallResult> result =
        connector_.Get(call, market::kNoDeadline);
    PAYLESS_RETURN_IF_ERROR(result.status());
    std::vector<Row> fresh;
    fresh.reserve(result->rows.size());
    for (Row& row : result->rows) {
      if (have.insert(row).second) fresh.push_back(std::move(row));
    }
    PAYLESS_RETURN_IF_ERROR(db_.InsertRows(table, fresh));
  }
  downloaded_.insert(table);
  return Status::OK();
}

Status DownloadAllClient::LoadLocalTable(const std::string& name,
                                         const std::vector<Row>& rows) {
  const catalog::TableDef* def = catalog_->FindTable(name);
  if (def == nullptr) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  PAYLESS_RETURN_IF_ERROR(db_.CreateTable(*def));
  return db_.InsertRows(name, rows);
}

Result<storage::Table> DownloadAllClient::Query(
    const std::string& sql, const std::vector<Value>& params) {
  Result<sql::SelectStmt> stmt = sql::Parse(sql);
  PAYLESS_RETURN_IF_ERROR(stmt.status());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, *catalog_, params);
  PAYLESS_RETURN_IF_ERROR(bound.status());

  std::vector<storage::Table> rel_tables;
  for (const sql::BoundRelation& rel : bound->relations) {
    if (rel.is_market()) {
      PAYLESS_RETURN_IF_ERROR(EnsureDownloaded(rel.def->name));
      // Local processing over the downloaded copy. The hosted data is
      // byte-identical to what was downloaded (datasets are append-only and
      // EnsureDownloaded is the only fetch path), so the market's indexes
      // stand in for local ones: evaluate the relation's conditions through
      // an UNBILLED index lookup rather than a full local scan.
      market::RestCall call;
      call.table = rel.def->name;
      call.conditions = rel.conditions;
      if (!rel.always_empty && call.Validate(*rel.def).ok()) {
        Result<market::CallResult> subset =
            connector_.market().Execute(call);  // no billing: owned data
        PAYLESS_RETURN_IF_ERROR(subset.status());
        storage::Table table(storage::SchemaFromTableDef(*rel.def));
        for (Row& row : subset->rows) table.Append(std::move(row));
        rel_tables.push_back(std::move(table));
        continue;
      }
    }
    const storage::Table* table = db_.FindTable(rel.def->name);
    if (table == nullptr) {
      return Status::NotFound("table '" + rel.def->name + "' has no data");
    }
    rel_tables.push_back(*table);
  }
  return EvaluateLocally(*bound, rel_tables);
}

}  // namespace payless::exec
