// The local engine against an evaluator that shares no code with it. Every
// instance of a small real bundle and of a TPC-H skew bundle (every
// template) runs three ways: (a) the naive oracle of naive_oracle.h over the
// hosted rows and the local tables, (b) ReferenceEvaluate and (c) a fresh
// PayLessFullConfig client. (b) and (c) share the local engine with each
// other, so only (a) can catch a kernel bug that both would make; (c) also
// covers buying (remainders, bind joins, the store). The three must agree
// under SameResult, and ORDER BY variants of some templates must come out
// of (b) and (c) sorted on their keys.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/reference.h"
#include "naive_oracle.h"
#include "sql/parser.h"
#include "workload/bundle.h"

namespace payless {
namespace {

/// An ORDER BY variant of a template: `from` is replaced by `to` in its
/// SQL (when `from` is not empty) and `order_by` is appended.
struct Ordered {
  size_t template_id;
  std::string from;
  std::string to;
  std::string order_by;
};

/// True when `table` is sorted on `sql`'s ORDER BY keys.
bool SortedOnOrderBy(const catalog::Catalog& catalog,
                     const workload::QueryInstance& query,
                     const storage::Table& table) {
  Result<sql::SelectStmt> stmt = sql::Parse(query.sql);
  if (!stmt.ok()) return false;
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, catalog, query.params);
  if (!bound.ok()) return false;
  const std::vector<Row>& rows = table.rows();
  for (size_t i = 1; i < rows.size(); ++i) {
    for (const sql::BoundOrderItem& key : bound->order_by) {
      const int cmp =
          rows[i - 1][key.output_column].Compare(rows[i][key.output_column]);
      if (cmp == 0) continue;
      if ((cmp > 0) == key.ascending) return false;
      break;
    }
  }
  return true;
}

void ExpectThreeWayAgreement(const workload::Bundle& bundle,
                             const std::vector<Ordered>& ordered) {
  std::vector<workload::QueryInstance> queries = bundle.queries;
  size_t num_ordered = 0;
  for (const workload::QueryInstance& query : bundle.queries) {
    for (const Ordered& o : ordered) {
      if (query.template_id != o.template_id) continue;
      workload::QueryInstance variant = query;
      if (!o.from.empty()) {
        const size_t at = variant.sql.find(o.from);
        ASSERT_NE(at, std::string::npos) << variant.sql;
        variant.sql.replace(at, o.from.size(), o.to);
      }
      variant.sql += " ORDER BY " + o.order_by;
      queries.push_back(std::move(variant));
      ++num_ordered;
    }
  }
  ASSERT_GT(num_ordered, 0u);

  storage::Database local_db;
  for (const auto& [name, rows] : bundle.local_tables) {
    ASSERT_TRUE(local_db.CreateTable(*bundle.catalog.FindTable(name)).ok());
    ASSERT_TRUE(local_db.InsertRows(name, rows).ok());
  }
  const naive::RowsOf rows_of =
      [&bundle](const catalog::TableDef& def) -> const std::vector<Row>* {
    if (!def.is_local) return bundle.market->HostedRows(def.name);
    const auto it = bundle.local_tables.find(def.name);
    return it == bundle.local_tables.end() ? nullptr : &it->second;
  };
  auto client =
      workload::NewPayLessClient(bundle, workload::PayLessFullConfig());

  size_t nonempty = 0;
  for (const workload::QueryInstance& query : queries) {
    SCOPED_TRACE("template " + std::to_string(query.template_id) + ": " +
                 query.sql);
    const Result<storage::Table> naive =
        naive::Evaluate(bundle.catalog, query.sql, query.params, rows_of);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    const Result<storage::Table> reference = exec::ReferenceEvaluate(
        bundle.catalog, *bundle.market, local_db, query.sql, query.params);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const Result<storage::Table> bought =
        client->Query(query.sql, query.params);
    ASSERT_TRUE(bought.ok()) << bought.status().ToString();

    EXPECT_TRUE(exec::SameResult(*naive, *reference))
        << "naive " << naive->num_rows() << " rows, reference "
        << reference->num_rows();
    EXPECT_TRUE(exec::SameResult(*naive, *bought))
        << "naive " << naive->num_rows() << " rows, client "
        << bought->num_rows();
    EXPECT_TRUE(SortedOnOrderBy(bundle.catalog, query, *reference));
    EXPECT_TRUE(SortedOnOrderBy(bundle.catalog, query, *bought));
    nonempty += naive->num_rows() > 0 ? 1 : 0;
  }
  // Valid instances return rows (§5): an all-empty run would check nothing.
  EXPECT_GT(nonempty, queries.size() / 2);
}

TEST(NaiveOracleTest, RealBundleAgreesThreeWays) {
  workload::RealDataOptions options;
  options.scale = 0.05;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/4,
                                               /*query_seed=*/1);
  ExpectThreeWayAgreement(
      *bundle,
      {{2, "SELECT AVG(Temperature)", "SELECT City, AVG(Temperature) AS t",
        "t DESC"},
       {3, "", "", "Temperature"}});
}

TEST(NaiveOracleTest, TpchSkewBundleAgreesThreeWays) {
  workload::TpchOptions options;
  options.scale_factor = 0.002;
  options.zipf = 1.0;
  const auto bundle = workload::MakeTpchBundle(options, /*per_template=*/2,
                                               /*query_seed=*/1);
  ExpectThreeWayAgreement(
      *bundle,
      {{2, "SELECT *", "SELECT OrderKey, TotalPrice", "TotalPrice DESC"},
       {6, "COUNT(*)", "COUNT(*) AS n", "n DESC, NationKey"},
       {16, "", "", "NName DESC"},
       {19, "AVG(TotalPrice)", "AVG(TotalPrice) AS revenue", "revenue"}});
}

}  // namespace
}  // namespace payless
