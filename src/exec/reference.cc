#include "exec/reference.h"

#include <map>

#include "exec/local_eval.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace payless::exec {

Result<storage::Table> ReferenceEvaluate(const catalog::Catalog& catalog,
                                         const market::DataMarket& market,
                                         const storage::Database& local_db,
                                         const std::string& sql,
                                         const std::vector<Value>& params) {
  Result<sql::SelectStmt> stmt = sql::Parse(sql);
  PAYLESS_RETURN_IF_ERROR(stmt.status());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, catalog, params);
  PAYLESS_RETURN_IF_ERROR(bound.status());

  std::vector<storage::Table> rel_tables;
  for (const sql::BoundRelation& rel : bound->relations) {
    storage::Table table(storage::SchemaFromTableDef(*rel.def));
    if (rel.is_market()) {
      const std::vector<Row>* rows = market.HostedRows(rel.def->name);
      if (rows == nullptr) {
        return Status::NotFound("table '" + rel.def->name + "' not hosted");
      }
      for (const Row& row : *rows) table.Append(row);
    } else {
      const storage::Table* local = local_db.FindTable(rel.def->name);
      if (local == nullptr) {
        return Status::NotFound("local table '" + rel.def->name +
                                "' has no data");
      }
      table = *local;
    }
    rel_tables.push_back(std::move(table));
  }
  return EvaluateLocally(*bound, rel_tables);
}

bool SameResult(const storage::Table& a, const storage::Table& b) {
  if (a.schema().num_columns() != b.schema().num_columns()) return false;
  if (a.num_rows() != b.num_rows()) return false;
  std::map<std::string, int64_t> counts;
  for (const Row& row : a.rows()) ++counts[RowToString(row)];
  for (const Row& row : b.rows()) {
    const auto it = counts.find(RowToString(row));
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

}  // namespace payless::exec
