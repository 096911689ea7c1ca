// §4.1 search-space analysis: for chain queries of n all-free relations,
// the unrestricted plan space is ≈ 6^n - 5^n candidates while PayLess's
// (Theorems 1-3) is ≈ 2^n' + (2/3)n'^3. This bench builds synthetic chain
// catalogs, runs both enumeration modes, and prints the measured candidate
// counts next to the paper's closed-form approximations.
#include <cassert>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/optimizer.h"
#include "semstore/semantic_store.h"
#include "sql/parser.h"
#include "stats/estimator.h"

namespace payless::bench {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::TableDef;

/// Chain of n market relations T1(a1,a2), T2(a2,a3), ..., all attributes
/// free, joined a2=a2, a3=a3, ...
catalog::Catalog MakeChainCatalog(int n) {
  catalog::Catalog cat;
  Status st = cat.RegisterDataset(catalog::DatasetDef{"CHAIN", 1.0, 100});
  assert(st.ok());
  for (int i = 1; i <= n; ++i) {
    TableDef def;
    def.name = "T" + std::to_string(i);
    def.dataset = "CHAIN";
    def.columns = {
        ColumnDef::Free("a" + std::to_string(i), ValueType::kInt64,
                        AttrDomain::Numeric(1, 1000)),
        ColumnDef::Free("a" + std::to_string(i + 1), ValueType::kInt64,
                        AttrDomain::Numeric(1, 1000))};
    def.cardinality = 10000;
    st = cat.RegisterTable(def);
    assert(st.ok());
  }
  return cat;
}

std::string ChainQuery(int n) {
  std::string sql = "SELECT COUNT(*) FROM ";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) sql += ", ";
    sql += "T" + std::to_string(i);
  }
  sql += " WHERE T1.a1 >= 1";
  for (int i = 1; i < n; ++i) {
    const std::string attr = "a" + std::to_string(i + 1);
    sql += " AND T" + std::to_string(i) + "." + attr + " = T" +
           std::to_string(i + 1) + "." + attr;
  }
  return sql;
}

size_t CountPlans(const catalog::Catalog& cat, const std::string& sql,
                  bool reduced) {
  stats::StatsRegistry stats(cat);
  semstore::SemanticStore store(cat);
  core::OptimizerOptions options;
  options.use_sqr = false;
  options.use_search_reduction = reduced;
  const core::Optimizer optimizer(&cat, &stats, &store, options);

  Result<sql::SelectStmt> stmt = sql::Parse(sql);
  assert(stmt.ok());
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, cat, {});
  assert(bound.ok());
  Result<core::OptimizeResult> result = optimizer.Optimize(*bound);
  assert(result.ok());
  return result->counters.evaluated_plans;
}

int Main() {
  std::printf("# chain query over n all-free market relations\n");
  std::printf("%3s %14s %14s %16s %16s\n", "n", "PayLess", "exhaustive",
              "~2^n+(2/3)n^3", "~6^n-5^n");
  for (int n = 2; n <= 9; ++n) {
    const catalog::Catalog cat = MakeChainCatalog(n);
    const std::string sql = ChainQuery(n);
    const size_t reduced = CountPlans(cat, sql, /*reduced=*/true);
    const size_t exhaustive = CountPlans(cat, sql, /*reduced=*/false);
    const double formula_reduced =
        std::pow(2.0, n) + (2.0 / 3.0) * std::pow(n, 3);
    const double formula_full = std::pow(6.0, n) - std::pow(5.0, n);
    std::printf("%3d %14zu %14zu %16.0f %16.0f\n", n, reduced, exhaustive,
                formula_reduced, formula_full);
  }
  return 0;
}

}  // namespace
}  // namespace payless::bench

int main() { return payless::bench::Main(); }
