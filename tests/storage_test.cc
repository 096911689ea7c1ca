#include "storage/table.h"

#include <gtest/gtest.h>

#include "storage/database.h"

namespace payless::storage {
namespace {

Schema TwoColSchema() {
  return Schema({SchemaColumn{"T", "id", ValueType::kInt64},
                 SchemaColumn{"T", "name", ValueType::kString}});
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
