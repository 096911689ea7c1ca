// Robustness sweep: randomly mutated SQL must never crash the front end —
// every outcome is either a parsed statement or a clean error Status.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/http_exposition.h"
#include "sql/bound_query.h"
#include "sql/parser.h"

namespace payless::sql {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

catalog::Catalog FuzzCatalog() {
  catalog::Catalog cat;
  EXPECT_TRUE(cat.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
  TableDef t;
  t.name = "T";
  t.dataset = "D";
  t.columns = {
      ColumnDef::Free("a", ValueType::kInt64, AttrDomain::Numeric(0, 99)),
      ColumnDef::Free("b", ValueType::kString,
                      AttrDomain::Categorical({"x", "y"})),
      ColumnDef::Output("c", ValueType::kDouble)};
  t.cardinality = 100;
  EXPECT_TRUE(cat.RegisterTable(t).ok());
  TableDef u;
  u.name = "U";
  u.dataset = "D";
  u.columns = {
      ColumnDef::Free("a", ValueType::kInt64, AttrDomain::Numeric(0, 99)),
      ColumnDef::Output("d", ValueType::kString)};
  u.cardinality = 50;
  EXPECT_TRUE(cat.RegisterTable(u).ok());
  return cat;
}

class SqlFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SqlFuzz, MutatedQueriesNeverCrash) {
  const catalog::Catalog cat = FuzzCatalog();
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761ULL + 1);
  const std::vector<std::string> fragments = {
      "SELECT", "FROM",  "WHERE", "AND",   "GROUP", "BY",   "ORDER",
      "DESC",   "COUNT", "AVG",   "(",     ")",     "*",    ",",
      ".",      "=",     "<>",    ">=",    "<",     "?",    "T",
      "U",      "a",     "b",     "c",     "d",     "'x'",  "42",
      "3.5",    "AS",    "alias", "T.a",   "U.a",   "nope",
      "EXPLAIN", "ANALYZE",
  };
  const std::string base =
      "SELECT a, COUNT(*) FROM T, U WHERE T.a = U.a AND b = 'x' AND "
      "a >= 10 GROUP BY a ORDER BY a DESC";

  for (int trial = 0; trial < 60; ++trial) {
    std::string sql;
    // Statements are fuzzed in all three forms: bare, EXPLAIN and
    // EXPLAIN ANALYZE (the prefix must never change crash behaviour).
    if (rng.Chance(0.3)) {
      sql = rng.Chance(0.5) ? "EXPLAIN " : "EXPLAIN ANALYZE ";
    }
    if (rng.Chance(0.5)) {
      // Random token soup.
      const size_t len = rng.Index(20) + 1;
      for (size_t i = 0; i < len; ++i) {
        sql += fragments[rng.Index(fragments.size())];
        sql += " ";
      }
    } else {
      // Mutated valid query: delete/duplicate/replace a token.
      sql += base;
      const size_t pos = rng.Index(sql.size());
      switch (rng.Index(3)) {
        case 0:
          sql.erase(pos, rng.Index(5) + 1);
          break;
        case 1:
          sql.insert(pos, fragments[rng.Index(fragments.size())]);
          break;
        case 2:
          sql[pos] = static_cast<char>('A' + rng.Index(26));
          break;
      }
    }
    // Must not crash; errors must carry a message.
    Result<SelectStmt> stmt = Parse(sql);
    if (!stmt.ok()) {
      EXPECT_FALSE(stmt.status().message().empty()) << sql;
      continue;
    }
    std::vector<Value> params(stmt->num_params, Value(int64_t{1}));
    Result<BoundQuery> bound = Bind(*stmt, cat, params);
    if (!bound.ok()) {
      EXPECT_FALSE(bound.status().message().empty()) << sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzz, ::testing::Range(0, 8));

// The HTTP query-string decoders feed /explain: random
// byte soup (truncated escapes, stray separators, embedded controls) must
// decode to SOMETHING without crashing, and whatever SQL falls out must
// flow through the parser as cleanly as hand-written garbage.
TEST(QueryStringFuzzTest, RandomQueryStringsDecodeAndParseCleanly) {
  const catalog::Catalog cat = FuzzCatalog();
  Rng rng(0xFACADE);
  const std::string charset =
      "abcdefgSELECT FROM%+&=?*<>'0123456789%%2%zz\x01\x7f";
  for (int trial = 0; trial < 200; ++trial) {
    std::string query;
    const size_t len = rng.Index(64);
    for (size_t i = 0; i < len; ++i) {
      query += charset[rng.Index(charset.size())];
    }
    // Decoding never throws and never grows the input.
    const std::string decoded = obs::UrlDecode(query);
    EXPECT_LE(decoded.size(), query.size());
    const std::string q = obs::QueryParam(query, "q");
    const std::string name = obs::QueryParam(query, "name");
    EXPECT_LE(q.size(), query.size());
    EXPECT_LE(name.size(), query.size());
    // Whatever came out of q= is fed to the SQL front end, as the
    // /explain route does: a parse, a bind, or a clean error.
    Result<SelectStmt> stmt = Parse(q.empty() ? decoded : q);
    if (stmt.ok()) {
      std::vector<Value> params(stmt->num_params, Value(int64_t{1}));
      (void)Bind(*stmt, cat, params);
    } else {
      EXPECT_FALSE(stmt.status().message().empty());
    }
  }
}

TEST(ExplainPrefixTest, MalformedPrefixesErrorCleanly) {
  // Every truncated or misplaced prefix is a clean parse error.
  for (const char* sql :
       {"EXPLAIN", "EXPLAIN ANALYZE", "ANALYZE SELECT a FROM T",
        "EXPLAIN EXPLAIN SELECT a FROM T", "EXPLAIN 42",
        "EXPLAIN ANALYZE ANALYZE SELECT a FROM T", "SELECT EXPLAIN FROM T"}) {
    Result<SelectStmt> stmt = Parse(sql);
    EXPECT_FALSE(stmt.ok()) << sql;
    EXPECT_FALSE(stmt.status().message().empty()) << sql;
  }
}

TEST(ExplainPrefixTest, ValidPrefixesParseWithTheRightMode) {
  Result<SelectStmt> plain = Parse("EXPLAIN SELECT a FROM T");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->explain, ExplainMode::kPlain);

  Result<SelectStmt> analyze =
      Parse("explain analyze select a from T where a >= ?");
  ASSERT_TRUE(analyze.ok()) << analyze.status().ToString();
  EXPECT_EQ(analyze->explain, ExplainMode::kAnalyze);

  Result<SelectStmt> bare = Parse("SELECT a FROM T");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->explain, ExplainMode::kNone);
  // The prefix round-trips through ToString().
  Result<SelectStmt> roundtrip =
      Parse(Parse("EXPLAIN ANALYZE SELECT a FROM T")->ToString());
  ASSERT_TRUE(roundtrip.ok()) << roundtrip.status().ToString();
  EXPECT_EQ(roundtrip->explain, ExplainMode::kAnalyze);
}

}  // namespace
}  // namespace payless::sql
