#include "storage/ops.h"

#include <gtest/gtest.h>

#include "exec/block.h"
#include "storage/database.h"
#include "storage/table.h"

namespace payless::storage {
namespace {

Schema TwoColSchema() {
  return Schema({SchemaColumn{"T", "id", ValueType::kInt64},
                 SchemaColumn{"T", "name", ValueType::kString}});
}

Table SampleTable() {
  Table t(TwoColSchema());
  t.Append({Value(int64_t{1}), Value("a")});
  t.Append({Value(int64_t{2}), Value("b")});
  t.Append({Value(int64_t{3}), Value("a")});
  t.Append({Value(int64_t{2}), Value("c")});
  return t;
}

TEST(SchemaTest, FindQualifiedAndUnqualified) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.Find("T", "id"), 0u);
  EXPECT_EQ(s.Find("name"), 1u);
  EXPECT_FALSE(s.Find("U", "id").has_value());
  EXPECT_FALSE(s.Find("missing").has_value());
}

TEST(SchemaTest, AmbiguousUnqualifiedLookupFails) {
  Schema s({SchemaColumn{"A", "k", ValueType::kInt64},
            SchemaColumn{"B", "k", ValueType::kInt64}});
  EXPECT_FALSE(s.Find("k").has_value());
  EXPECT_EQ(s.Find("A", "k"), 0u);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  const Schema c = Schema::Concat(TwoColSchema(), TwoColSchema());
  EXPECT_EQ(c.num_columns(), 4u);
  EXPECT_EQ(c.column(2).name, "id");
}

TEST(TableTest, AppendCheckedValidatesArity) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.AppendChecked({Value(int64_t{1})}).ok());
  EXPECT_TRUE(t.AppendChecked({Value(int64_t{1}), Value("x")}).ok());
}

TEST(TableTest, AppendCheckedValidatesTypes) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.AppendChecked({Value("no"), Value("x")}).ok());
  EXPECT_TRUE(t.AppendChecked({Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, AppendCheckedCoercesIntToDoubleColumn) {
  Table t(Schema({SchemaColumn{"T", "v", ValueType::kDouble}}));
  EXPECT_TRUE(t.AppendChecked({Value(int64_t{3})}).ok());
}

TEST(TableTest, ColumnValues) {
  const Table t = SampleTable();
  const std::vector<Value> names = t.ColumnValues(1);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], Value("a"));
  EXPECT_EQ(names[3], Value("c"));
}

TEST(ProjectTest, ReordersColumns) {
  const Table out = Project(SampleTable(), {1, 0});
  EXPECT_EQ(out.schema().column(0).name, "name");
  EXPECT_EQ(out.rows()[0][0], Value("a"));
  EXPECT_EQ(out.rows()[0][1], Value(int64_t{1}));
}

TEST(ProjectTest, DuplicateColumnAllowed) {
  const Table out = Project(SampleTable(), {0, 0});
  EXPECT_EQ(out.schema().num_columns(), 2u);
  EXPECT_EQ(out.rows()[2][0], out.rows()[2][1]);
}

Table KeyedTable(const std::string& name,
                 std::vector<std::pair<int64_t, std::string>> rows) {
  Table t(Schema({SchemaColumn{name, "k", ValueType::kInt64},
                  SchemaColumn{name, "v", ValueType::kString}}));
  for (auto& [k, v] : rows) t.Append({Value(k), Value(v)});
  return t;
}

// Joins run on the block kernel (exec/block.h); these cases pin its
// contract on row-major tables converted through ColumnsFromRows.
exec::ColumnTable Columns(const Table& table) {
  return exec::ColumnsFromRows(table.rows(), table.schema().num_columns());
}

TEST(HashJoinTest, BasicEquiJoin) {
  const Table l = KeyedTable("L", {{1, "a"}, {2, "b"}, {3, "c"}});
  const Table r = KeyedTable("R", {{2, "x"}, {3, "y"}, {4, "z"}});
  const exec::ColumnTable out =
      exec::BlockHashJoin(Columns(l), Columns(r), {{0, 0}});
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.num_columns(), 4u);
}

TEST(HashJoinTest, DuplicateKeysMultiply) {
  const Table l = KeyedTable("L", {{1, "a"}, {1, "b"}});
  const Table r = KeyedTable("R", {{1, "x"}, {1, "y"}, {1, "z"}});
  EXPECT_EQ(exec::BlockHashJoin(Columns(l), Columns(r), {{0, 0}}).num_rows(),
            6u);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Table l(TwoColSchema());
  l.Append({Value::Null(), Value("a")});
  Table r(TwoColSchema());
  r.Append({Value::Null(), Value("b")});
  EXPECT_EQ(exec::BlockHashJoin(Columns(l), Columns(r), {{0, 0}}).num_rows(),
            0u);
}

TEST(HashJoinTest, MultiKeyJoin) {
  const Table l = KeyedTable("L", {{1, "a"}, {1, "b"}});
  const Table r = KeyedTable("R", {{1, "a"}, {1, "z"}});
  // Join on (k, v): only the (1, "a") rows pair up.
  EXPECT_EQ(exec::BlockHashJoin(Columns(l), Columns(r), {{0, 0}, {1, 1}})
                .num_rows(),
            1u);
}

TEST(HashJoinTest, LeftColumnsAlwaysComeFirst) {
  // Build side selection must not leak into the output layout.
  const Table small = KeyedTable("S", {{1, "s"}});
  const Table big = KeyedTable("B", {{1, "b1"}, {1, "b2"}, {2, "b3"}});
  const std::vector<Row> out = exec::RowsFromColumns(
      exec::BlockHashJoin(Columns(big), Columns(small), {{0, 0}}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][1], Value("b1"));
  EXPECT_EQ(out[0][3], Value("s"));
}

TEST(HashJoinTest, EmptyKeyListIsCartesian) {
  const Table l = KeyedTable("L", {{1, "a"}, {2, "b"}});
  const Table r = KeyedTable("R", {{9, "x"}});
  EXPECT_EQ(exec::BlockHashJoin(Columns(l), Columns(r), {}).num_rows(), 2u);
}

TEST(CartesianTest, Sizes) {
  const Table l = KeyedTable("L", {{1, "a"}, {2, "b"}});
  const Table r = KeyedTable("R", {{3, "x"}, {4, "y"}, {5, "z"}});
  EXPECT_EQ(exec::BlockCartesian(Columns(l), Columns(r)).num_rows(), 6u);
  EXPECT_EQ(
      exec::BlockCartesian(Columns(l), Columns(Table(TwoColSchema())))
          .num_rows(),
      0u);
}

Table NumbersTable(std::vector<std::pair<std::string, double>> rows) {
  Table t(Schema({SchemaColumn{"T", "g", ValueType::kString},
                  SchemaColumn{"T", "v", ValueType::kDouble}}));
  for (auto& [g, v] : rows) t.Append({Value(g), Value(v)});
  return t;
}

TEST(GroupAggregateTest, GroupedCountSumAvgMinMax) {
  const Table t = NumbersTable({{"a", 1.0}, {"a", 3.0}, {"b", 10.0}});
  const Table out = GroupAggregate(
      t, {0},
      {AggSpec{AggFunc::kCount, 0, true, "cnt"},
       AggSpec{AggFunc::kSum, 1, false, "sum"},
       AggSpec{AggFunc::kAvg, 1, false, "avg"},
       AggSpec{AggFunc::kMin, 1, false, "min"},
       AggSpec{AggFunc::kMax, 1, false, "max"}});
  ASSERT_EQ(out.num_rows(), 2u);
  // First-seen group order: "a" then "b".
  EXPECT_EQ(out.rows()[0][1], Value(int64_t{2}));
  EXPECT_EQ(out.rows()[0][2], Value(4.0));
  EXPECT_EQ(out.rows()[0][3], Value(2.0));
  EXPECT_EQ(out.rows()[0][4], Value(1.0));
  EXPECT_EQ(out.rows()[0][5], Value(3.0));
  EXPECT_EQ(out.rows()[1][1], Value(int64_t{1}));
}

TEST(GroupAggregateTest, GlobalAggregateOverEmptyInput) {
  Table t = NumbersTable({});
  const Table out = GroupAggregate(
      t, {},
      {AggSpec{AggFunc::kCount, 0, true, "cnt"},
       AggSpec{AggFunc::kAvg, 1, false, "avg"}});
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.rows()[0][0], Value(int64_t{0}));
  EXPECT_TRUE(out.rows()[0][1].is_null());
}

TEST(GroupAggregateTest, GroupedAggregateOverEmptyInputHasNoRows) {
  Table t = NumbersTable({});
  EXPECT_EQ(GroupAggregate(t, {0}, {AggSpec{AggFunc::kCount, 0, true, "c"}})
                .num_rows(),
            0u);
}

TEST(GroupAggregateTest, CountColumnIgnoresNulls) {
  Table t(Schema({SchemaColumn{"T", "v", ValueType::kInt64}}));
  t.Append({Value(int64_t{1})});
  t.Append({Value::Null()});
  const Table out =
      GroupAggregate(t, {}, {AggSpec{AggFunc::kCount, 0, false, "c"},
                             AggSpec{AggFunc::kCount, 0, true, "star"}});
  EXPECT_EQ(out.rows()[0][0], Value(int64_t{1}));  // COUNT(v)
  EXPECT_EQ(out.rows()[0][1], Value(int64_t{2}));  // COUNT(*)
}

TEST(GroupAggregateTest, MinMaxOnStrings) {
  Table t(Schema({SchemaColumn{"T", "s", ValueType::kString}}));
  t.Append({Value("pear")});
  t.Append({Value("apple")});
  const Table out =
      GroupAggregate(t, {}, {AggSpec{AggFunc::kMin, 0, false, "min"},
                             AggSpec{AggFunc::kMax, 0, false, "max"}});
  EXPECT_EQ(out.rows()[0][0], Value("apple"));
  EXPECT_EQ(out.rows()[0][1], Value("pear"));
}

TEST(GroupAggregateTest, DefaultOutputNames) {
  const Table t = NumbersTable({{"a", 1.0}});
  const Table out =
      GroupAggregate(t, {0}, {AggSpec{AggFunc::kAvg, 1, false, ""}});
  EXPECT_EQ(out.schema().column(1).name, "AVG(v)");
}

TEST(DatabaseTest, CreateInsertTruncate) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.RegisterDataset(catalog::DatasetDef{"D", 1.0, 100}).ok());
  catalog::TableDef def;
  def.name = "T";
  def.is_local = true;
  def.columns = {catalog::ColumnDef::Free(
      "k", ValueType::kInt64, catalog::AttrDomain::Numeric(0, 9))};
  Database db;
  ASSERT_TRUE(db.CreateTable(def).ok());
  EXPECT_TRUE(db.HasTable("T"));
  ASSERT_TRUE(db.InsertRows("T", {{Value(int64_t{1})}, {Value(int64_t{2})}}).ok());
  EXPECT_EQ(db.FindTable("T")->num_rows(), 2u);
  ASSERT_TRUE(db.Truncate("T").ok());
  EXPECT_EQ(db.FindTable("T")->num_rows(), 0u);
  EXPECT_EQ(db.InsertRows("U", {}).code(), Status::Code::kNotFound);
}

TEST(DatabaseTest, CreateTableIdempotent) {
  catalog::TableDef def;
  def.name = "T";
  def.is_local = true;
  def.columns = {catalog::ColumnDef::Output("x", ValueType::kInt64)};
  Database db;
  ASSERT_TRUE(db.CreateTable(def).ok());
  EXPECT_TRUE(db.CreateTable(def).ok());
  def.columns.push_back(catalog::ColumnDef::Output("y", ValueType::kInt64));
  EXPECT_FALSE(db.CreateTable(def).ok());
}

TEST(DatabaseTest, InsertValidatesTypes) {
  catalog::TableDef def;
  def.name = "T";
  def.is_local = true;
  def.columns = {catalog::ColumnDef::Output("x", ValueType::kInt64)};
  Database db;
  ASSERT_TRUE(db.CreateTable(def).ok());
  EXPECT_FALSE(db.InsertRows("T", {{Value("wrong")}}).ok());
}

}  // namespace
}  // namespace payless::storage
