// JoinedRows / FilterRelation / EvaluateLocally: the final local processing
// step shared by the engine, the baselines and the oracle.
#include "exec/local_eval.h"

#include <gtest/gtest.h>

#include <numeric>

#include "sql/parser.h"
#include "storage/database.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class LocalEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
    TableDef left;
    left.name = "L";
    left.dataset = "D";
    left.columns = {
        ColumnDef::Free("K", ValueType::kInt64, AttrDomain::Numeric(1, 9)),
        ColumnDef::Output("A", ValueType::kString)};
    left.cardinality = 9;
    ASSERT_TRUE(cat_.RegisterTable(left).ok());
    TableDef right;
    right.name = "R";
    right.dataset = "D";
    right.columns = {
        ColumnDef::Free("K", ValueType::kInt64, AttrDomain::Numeric(1, 9)),
        ColumnDef::Output("B", ValueType::kDouble)};
    right.cardinality = 9;
    ASSERT_TRUE(cat_.RegisterTable(right).ok());
    TableDef island;
    island.name = "I";
    island.dataset = "D";
    island.columns = {
        ColumnDef::Free("X", ValueType::kInt64, AttrDomain::Numeric(1, 3))};
    island.cardinality = 3;
    ASSERT_TRUE(cat_.RegisterTable(island).ok());
  }

  sql::BoundQuery BindSql(const std::string& sql) {
    Result<sql::SelectStmt> stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok());
    Result<sql::BoundQuery> bound = sql::Bind(*stmt, cat_, {});
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(*bound);
  }

  storage::Table LTable(std::vector<std::pair<int64_t, std::string>> rows) {
    storage::Table t(storage::SchemaFromTableDef(*cat_.FindTable("L")));
    for (auto& [k, a] : rows) t.Append({Value(k), Value(a)});
    return t;
  }
  storage::Table RTable(std::vector<std::pair<int64_t, double>> rows) {
    storage::Table t(storage::SchemaFromTableDef(*cat_.FindTable("R")));
    for (auto& [k, b] : rows) t.Append({Value(k), Value(b)});
    return t;
  }
  storage::Table ITable(std::vector<int64_t> xs) {
    storage::Table t(storage::SchemaFromTableDef(*cat_.FindTable("I")));
    for (int64_t x : xs) t.Append({Value(x)});
    return t;
  }

  catalog::Catalog cat_;
};

TEST_F(LocalEvalTest, EquiJoinInFromOrder) {
  const sql::BoundQuery q =
      BindSql("SELECT A, B FROM L, R WHERE L.K = R.K");
  Result<storage::Table> out = EvaluateLocally(
      q, {LTable({{1, "x"}, {2, "y"}}), RTable({{2, 20.0}, {3, 30.0}})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][0], Value("y"));
  EXPECT_EQ(out->rows()[0][1], Value(20.0));
}

TEST_F(LocalEvalTest, DisconnectedRelationsCartesian) {
  const sql::BoundQuery q = BindSql("SELECT * FROM L, I");
  Result<storage::Table> out =
      EvaluateLocally(q, {LTable({{1, "x"}, {2, "y"}}), ITable({1, 2, 3})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 6u);
  EXPECT_EQ(out->schema().num_columns(), 3u);
}

TEST_F(LocalEvalTest, FilterRelationAppliesConditionsAndResiduals) {
  const sql::BoundQuery q =
      BindSql("SELECT * FROM L WHERE K >= 2 AND A = 'keep'");
  EXPECT_EQ(FilterRelation(q, 0,
                           LTable({{1, "keep"}, {2, "keep"}, {3, "drop"},
                                   {4, "keep"}})),
            (std::vector<uint32_t>{1, 3}));
}

TEST_F(LocalEvalTest, AlwaysEmptyRelationYieldsNoRows) {
  const sql::BoundQuery q = BindSql("SELECT * FROM L WHERE K = 2 AND K = 3");
  Result<storage::Table> out = EvaluateLocally(q, {LTable({{2, "x"}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST_F(LocalEvalTest, StarExpandsInFromOrderRegardlessOfJoinOrder) {
  // I has no join edge, L-R join: placement order may differ from FROM
  // order, but the star expansion must follow FROM order (I, L, R).
  const sql::BoundQuery q = BindSql("SELECT * FROM I, L, R WHERE L.K = R.K");
  Result<storage::Table> out = EvaluateLocally(
      q, {ITable({7}), LTable({{1, "x"}}), RTable({{1, 10.0}})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][0], Value(int64_t{7}));   // I.X
  EXPECT_EQ(out->rows()[0][1], Value(int64_t{1}));   // L.K
  EXPECT_EQ(out->rows()[0][2], Value("x"));          // L.A
  EXPECT_EQ(out->rows()[0][4], Value(10.0));         // R.B
}

TEST_F(LocalEvalTest, OutputColumnsCarrySelectNames) {
  const sql::BoundQuery q =
      BindSql("SELECT A AS label, K FROM L WHERE K = 1");
  Result<storage::Table> out = EvaluateLocally(q, {LTable({{1, "x"}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "label");
  EXPECT_EQ(out->schema().column(1).name, "K");
}

TEST_F(LocalEvalTest, AggregateWithJoin) {
  const sql::BoundQuery q = BindSql(
      "SELECT COUNT(*), AVG(B) FROM L, R WHERE L.K = R.K");
  Result<storage::Table> out = EvaluateLocally(
      q, {LTable({{1, "x"}, {2, "y"}, {3, "z"}}),
          RTable({{1, 10.0}, {2, 20.0}, {9, 90.0}})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][0], Value(int64_t{2}));
  EXPECT_EQ(out->rows()[0][1], Value(15.0));
}

TEST_F(LocalEvalTest, DuplicateJoinKeysMultiplyRows) {
  const sql::BoundQuery q = BindSql("SELECT B FROM L, R WHERE L.K = R.K");
  Result<storage::Table> out = EvaluateLocally(
      q, {LTable({{1, "a"}, {1, "b"}}), RTable({{1, 10.0}, {1, 11.0}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST_F(LocalEvalTest, SupersetInputRowsAreRefiltered) {
  // Callers may pass more rows than the conditions allow (e.g. a cached
  // superset); EvaluateLocally must re-apply the conditions.
  const sql::BoundQuery q = BindSql("SELECT * FROM L WHERE K = 5");
  Result<storage::Table> out =
      EvaluateLocally(q, {LTable({{4, "no"}, {5, "yes"}, {6, "no"}})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][1], Value("yes"));
}

// Projection writes each output value once, in SELECT-list order.
using ProjectTest = LocalEvalTest;

TEST_F(ProjectTest, ReordersColumns) {
  const sql::BoundQuery q = BindSql("SELECT A, K FROM L");
  Result<storage::Table> out = EvaluateLocally(q, {LTable({{1, "a"}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "A");
  EXPECT_EQ(out->schema().column(0).type, ValueType::kString);
  EXPECT_EQ(out->rows()[0][0], Value("a"));
  EXPECT_EQ(out->rows()[0][1], Value(int64_t{1}));
}

TEST_F(ProjectTest, DuplicateColumnAllowed) {
  const sql::BoundQuery q = BindSql("SELECT K, K FROM L");
  Result<storage::Table> out =
      EvaluateLocally(q, {LTable({{1, "a"}, {2, "b"}})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->schema().num_columns(), 2u);
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->rows()[1][0], Value(int64_t{2}));
  EXPECT_EQ(out->rows()[1][1], Value(int64_t{2}));
}

// Aggregation is one pass over the joined rows.
using AggregateTest = LocalEvalTest;

TEST_F(AggregateTest, GroupedCountSumAvgMinMax) {
  const sql::BoundQuery q = BindSql(
      "SELECT A, COUNT(*), SUM(B), AVG(B), MIN(B), MAX(B), MAX(L.K) "
      "FROM L, R WHERE L.K = R.K GROUP BY A");
  Result<storage::Table> out = EvaluateLocally(
      q, {LTable({{1, "b"}, {2, "b"}, {3, "a"}}),
          RTable({{1, 1.0}, {2, 3.0}, {3, 10.0}})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  // First-seen group order: "b" then "a".
  EXPECT_EQ(out->rows()[0],
            (Row{Value("b"), Value(int64_t{2}), Value(4.0), Value(2.0),
                 Value(1.0), Value(3.0), Value(int64_t{2})}));
  EXPECT_EQ(out->rows()[1],
            (Row{Value("a"), Value(int64_t{1}), Value(10.0), Value(10.0),
                 Value(10.0), Value(10.0), Value(int64_t{3})}));
  const std::vector<ValueType> types = {
      ValueType::kString, ValueType::kInt64,  ValueType::kDouble,
      ValueType::kDouble, ValueType::kDouble, ValueType::kDouble,
      ValueType::kInt64};
  for (size_t c = 0; c < types.size(); ++c) {
    EXPECT_EQ(out->schema().column(c).type, types[c]) << "column " << c;
    EXPECT_EQ(out->schema().column(c).table, "") << "column " << c;
  }
  EXPECT_EQ(out->schema().column(1).name, "COUNT(*)");
}

TEST_F(AggregateTest, GlobalAggregateOverEmptyInput) {
  const sql::BoundQuery q = BindSql("SELECT COUNT(*), AVG(B) FROM R");
  Result<storage::Table> out = EvaluateLocally(q, {RTable({})});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][0], Value(int64_t{0}));
  EXPECT_TRUE(out->rows()[0][1].is_null());
}

TEST_F(AggregateTest, GroupedAggregateOverEmptyInputHasNoRows) {
  const sql::BoundQuery q = BindSql("SELECT K, COUNT(*) FROM R GROUP BY K");
  Result<storage::Table> out = EvaluateLocally(q, {RTable({})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST_F(AggregateTest, CountColumnIgnoresNulls) {
  const sql::BoundQuery q = BindSql("SELECT COUNT(B), COUNT(*) FROM R");
  storage::Table r = RTable({{1, 1.0}});
  r.Append({Value(int64_t{2}), Value::Null()});
  Result<storage::Table> out = EvaluateLocally(q, {r});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows()[0][0], Value(int64_t{1}));  // COUNT(B)
  EXPECT_EQ(out->rows()[0][1], Value(int64_t{2}));  // COUNT(*)
}

TEST_F(AggregateTest, MinMaxOnStrings) {
  const sql::BoundQuery q = BindSql("SELECT MIN(A), MAX(A) FROM L");
  Result<storage::Table> out =
      EvaluateLocally(q, {LTable({{1, "pear"}, {2, "apple"}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows()[0][0], Value("apple"));
  EXPECT_EQ(out->rows()[0][1], Value("pear"));
  EXPECT_EQ(out->schema().column(0).type, ValueType::kString);
}

// JoinedRows directly: relation 0 is placed first, relation 1 joins it.
storage::Table Keyed(std::vector<std::pair<Value, std::string>> rows) {
  storage::Table t(storage::Schema({{"T", "k", ValueType::kInt64},
                                    {"T", "v", ValueType::kString}}));
  for (auto& [k, v] : rows) t.Append({k, Value(v)});
  return t;
}

std::vector<uint32_t> All(const storage::Table& t) {
  std::vector<uint32_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

using VPairs = std::vector<std::pair<std::string, std::string>>;

/// Relation 0's then relation 1's `v` of every joined row.
VPairs Pairs(const JoinedRows& joined) {
  VPairs out;
  for (size_t i = 0; i < joined.num_rows(); ++i) {
    out.emplace_back(joined.At(i, 0, 1).AsString(),
                     joined.At(i, 1, 1).AsString());
  }
  return out;
}

JoinedRows JoinOn(const storage::Table& left, const storage::Table& right,
                  std::vector<JoinedRows::Key> keys) {
  JoinedRows joined;
  joined.Join(0, left, All(left), {});
  joined.Join(1, right, All(right), keys);
  return joined;
}

const std::vector<JoinedRows::Key> kOnK = {{{0, 0}, 0}};

Value K(int64_t k) { return Value(k); }

TEST(HashJoinTest, BasicEquiJoin) {
  const storage::Table l = Keyed({{K(1), "a"}, {K(2), "b"}, {K(3), "c"}});
  const storage::Table r = Keyed({{K(2), "x"}, {K(3), "y"}, {K(4), "z"}});
  const JoinedRows joined = JoinOn(l, r, kOnK);
  EXPECT_EQ(Pairs(joined), (VPairs{{"b", "x"}, {"c", "y"}}));
}

TEST(HashJoinTest, DuplicateKeysMultiply) {
  const storage::Table l = Keyed({{K(1), "a"}, {K(1), "b"}});
  const storage::Table r = Keyed({{K(1), "x"}, {K(1), "y"}, {K(1), "z"}});
  EXPECT_EQ(JoinOn(l, r, kOnK).num_rows(), 6u);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  const storage::Table l = Keyed({{Value::Null(), "a"}, {K(1), "b"}});
  const storage::Table r = Keyed({{Value::Null(), "x"}, {K(1), "y"}});
  EXPECT_EQ(Pairs(JoinOn(l, r, kOnK)), (VPairs{{"b", "y"}}));
}

TEST(HashJoinTest, MultiKeyJoin) {
  const storage::Table l = Keyed({{K(1), "a"}, {K(1), "b"}});
  const storage::Table r = Keyed({{K(1), "a"}, {K(1), "z"}, {K(2), "a"}});
  // Join on (k, v): only the (1, "a") rows pair up.
  EXPECT_EQ(Pairs(JoinOn(l, r, {{{0, 0}, 0}, {{0, 1}, 1}})),
            (VPairs{{"a", "a"}}));
}

TEST(HashJoinTest, OutputFollowsProbeOrderOnEitherBuildSide) {
  const storage::Table big =
      Keyed({{K(2), "b1"}, {K(1), "b2"}, {K(2), "b3"}, {K(3), "b4"}});
  const storage::Table small = Keyed({{K(2), "s1"}, {K(1), "s2"}});
  // The running join is larger: the new relation builds, the running join
  // probes, and its row order is kept.
  EXPECT_EQ(Pairs(JoinOn(big, small, kOnK)),
            (VPairs{{"b1", "s1"}, {"b2", "s2"}, {"b3", "s1"}}));
  // The running join is smaller: it builds, the new relation probes, and
  // matches come out in probe order x build-insertion order.
  EXPECT_EQ(Pairs(JoinOn(small, big, kOnK)),
            (VPairs{{"s1", "b1"}, {"s2", "b2"}, {"s1", "b3"}}));
}

TEST(HashJoinTest, EmptyKeyListIsCartesian) {
  const storage::Table l = Keyed({{K(1), "a"}, {K(2), "b"}});
  const storage::Table r = Keyed({{K(9), "x"}});
  EXPECT_EQ(JoinOn(l, r, {}).num_rows(), 2u);
}

TEST(CartesianTest, Sizes) {
  const storage::Table l = Keyed({{K(1), "a"}, {K(2), "b"}});
  const storage::Table r = Keyed({{K(3), "x"}, {K(4), "y"}, {K(5), "z"}});
  EXPECT_EQ(JoinOn(l, r, {}).num_rows(), 6u);
  EXPECT_EQ(JoinOn(l, Keyed({}), {}).num_rows(), 0u);
  EXPECT_EQ(JoinOn(Keyed({}), r, {}).num_rows(), 0u);
}

TEST(CartesianTest, JoinedRowMajorOrder) {
  const storage::Table l = Keyed({{K(1), "a"}, {K(2), "b"}});
  const storage::Table r = Keyed({{K(3), "x"}, {K(4), "y"}});
  EXPECT_EQ(Pairs(JoinOn(l, r, {})),
            (VPairs{{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}}));
}

TEST(JoinedRowsTest, UnitHasOneRowAndNothingPlaced) {
  JoinedRows joined;
  EXPECT_EQ(joined.num_rows(), 1u);
  EXPECT_FALSE(joined.placed(0));
  const storage::Table t = Keyed({{K(1), "a"}, {K(2), "b"}, {K(3), "c"}});
  joined.Join(2, t, {0, 2}, {});
  EXPECT_TRUE(joined.placed(2));
  EXPECT_FALSE(joined.placed(0));
  ASSERT_EQ(joined.num_rows(), 2u);
  EXPECT_EQ(joined.At(1, 2, 1), Value("c"));
}

}  // namespace
}  // namespace payless::exec
