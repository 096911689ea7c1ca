#include <gtest/gtest.h>

#include "sql/bound_query.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace payless::sql {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  Result<std::vector<Token>> tokens =
      Tokenize("SELECT a, b FROM t WHERE x >= 10");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[2].type, TokenType::kComma);
  EXPECT_TRUE((*tokens)[8].IsOperator(">="));
  EXPECT_EQ((*tokens)[9].int_value, 10);
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  Result<std::vector<Token>> tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, IdentifiersPreserveCase) {
  Result<std::vector<Token>> tokens = Tokenize("StationID");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "StationID");
}

TEST(LexerTest, StringLiterals) {
  Result<std::vector<Token>> tokens = Tokenize("'Seattle' ''");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "Seattle");
  EXPECT_EQ((*tokens)[1].text, "");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_EQ(Tokenize("'oops").status().code(), Status::Code::kParseError);
}

TEST(LexerTest, FloatsAndInts) {
  Result<std::vector<Token>> tokens = Tokenize("3.5 42 7.");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[0].float_value, 3.5);
  EXPECT_EQ((*tokens)[1].type, TokenType::kInteger);
  // "7." without digits after the dot lexes as integer then dot.
  EXPECT_EQ((*tokens)[2].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[3].type, TokenType::kDot);
}

TEST(LexerTest, Operators) {
  Result<std::vector<Token>> tokens = Tokenize("= <> != < <= > >=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsOperator("="));
  EXPECT_TRUE((*tokens)[1].IsOperator("<>"));
  EXPECT_TRUE((*tokens)[2].IsOperator("<>"));  // != normalizes
  EXPECT_TRUE((*tokens)[3].IsOperator("<"));
  EXPECT_TRUE((*tokens)[4].IsOperator("<="));
  EXPECT_TRUE((*tokens)[5].IsOperator(">"));
  EXPECT_TRUE((*tokens)[6].IsOperator(">="));
}

TEST(LexerTest, IntegerOverflowFails) {
  EXPECT_FALSE(Tokenize("99999999999999999999999").ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_FALSE(Tokenize("SELECT #").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, MinimalSelect) {
  Result<SelectStmt> stmt = Parse("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->select.size(), 1u);
  EXPECT_EQ(stmt->select[0].kind, SelectItem::Kind::kStar);
  EXPECT_EQ(stmt->from, (std::vector<std::string>{"t"}));
  EXPECT_TRUE(stmt->where.empty());
}

TEST(ParserTest, QualifiedColumnsAndAliases) {
  Result<SelectStmt> stmt = Parse("SELECT t.a AS x, b FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select[0].column.table, "t");
  EXPECT_EQ(stmt->select[0].column.column, "a");
  EXPECT_EQ(stmt->select[0].alias, "x");
  EXPECT_EQ(stmt->select[1].column.column, "b");
}

TEST(ParserTest, Aggregates) {
  Result<SelectStmt> stmt =
      Parse("SELECT COUNT(*), AVG(t.v), MIN(v), MAX(v), SUM(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select[0].agg_star);
  EXPECT_EQ(stmt->select[0].agg, AggFunc::kCount);
  EXPECT_EQ(stmt->select[1].agg, AggFunc::kAvg);
  EXPECT_EQ(stmt->select[1].column.table, "t");
  EXPECT_EQ(stmt->select[4].agg, AggFunc::kSum);
}

TEST(ParserTest, WhereConjunction) {
  Result<SelectStmt> stmt =
      Parse("SELECT a FROM t WHERE a = 1 AND b >= 2.5 AND c = 'x' AND d <> 3");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->where.size(), 4u);
  EXPECT_EQ(stmt->where[0].op, CompareOp::kEq);
  EXPECT_EQ(stmt->where[1].rhs.literal, Value(2.5));
  EXPECT_EQ(stmt->where[2].rhs.literal, Value("x"));
  EXPECT_EQ(stmt->where[3].op, CompareOp::kNe);
}

TEST(ParserTest, JoinPredicate) {
  Result<SelectStmt> stmt =
      Parse("SELECT a FROM t, u WHERE t.k = u.k");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->where.size(), 1u);
  EXPECT_EQ(stmt->where[0].rhs.kind, Operand::Kind::kColumn);
}

TEST(ParserTest, ChainedEqualityDesugars) {
  Result<SelectStmt> stmt =
      Parse("SELECT a FROM t, u WHERE t.c = u.c = 'US'");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->where.size(), 2u);
  EXPECT_EQ(stmt->where[0].lhs.ToString(), "t.c");
  EXPECT_EQ(stmt->where[0].rhs.column.ToString(), "u.c");
  EXPECT_EQ(stmt->where[1].lhs.ToString(), "u.c");
  EXPECT_EQ(stmt->where[1].rhs.literal, Value("US"));
}

TEST(ParserTest, TripleChainedEquality) {
  Result<SelectStmt> stmt =
      Parse("SELECT a FROM t, u, v WHERE t.c = u.c = v.c = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where.size(), 3u);
}

TEST(ParserTest, ChainRequiresColumnOnBothSides) {
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE a = 1 = 2").ok());
}

TEST(ParserTest, Parameters) {
  Result<SelectStmt> stmt =
      Parse("SELECT a FROM t WHERE a = ? AND b >= ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->num_params, 2u);
  EXPECT_EQ(stmt->where[0].rhs.param_index, 0u);
  EXPECT_EQ(stmt->where[1].rhs.param_index, 1u);
}

TEST(ParserTest, GroupBy) {
  Result<SelectStmt> stmt =
      Parse("SELECT c, COUNT(*) FROM t GROUP BY c, t.d");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->group_by.size(), 2u);
  EXPECT_EQ(stmt->group_by[1].table, "t");
}

TEST(ParserTest, ErrorCases) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT a").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t GROUP c").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t trailing").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(a FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE a").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE a = ").ok());
}

TEST(ParserTest, ToStringRoundTripsThroughParser) {
  const std::string sql =
      "SELECT City, AVG(Temperature) AS avg_t FROM Station, Weather "
      "WHERE Station.ID = Weather.ID AND Date >= 5 GROUP BY City";
  Result<SelectStmt> stmt = Parse(sql);
  ASSERT_TRUE(stmt.ok());
  Result<SelectStmt> reparsed = Parse(stmt->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(stmt->ToString(), reparsed->ToString());
}

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 100}).ok());
    TableDef station;
    station.name = "Station";
    station.dataset = "WHW";
    station.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 100)),
        ColumnDef::Output("State", ValueType::kString)};
    station.cardinality = 100;
    ASSERT_TRUE(cat_.RegisterTable(station).ok());

    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 100)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(0, 364)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = 36500;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    TableDef zipmap;
    zipmap.name = "ZipMap";
    zipmap.is_local = true;
    zipmap.columns = {
        ColumnDef::Free("ZipCode", ValueType::kInt64,
                        AttrDomain::Numeric(10000, 10099)),
        ColumnDef::Output("City", ValueType::kString)};
    zipmap.cardinality = 100;
    ASSERT_TRUE(cat_.RegisterTable(zipmap).ok());
  }

  Result<BoundQuery> BindSql(const std::string& sql,
                             std::vector<Value> params = {}) {
    Result<SelectStmt> stmt = Parse(sql);
    if (!stmt.ok()) return stmt.status();
    return Bind(*stmt, cat_, params);
  }

  catalog::Catalog cat_;
};

TEST_F(BinderTest, ResolvesTablesAndLocality) {
  Result<BoundQuery> q = BindSql("SELECT * FROM Station, ZipMap");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->relations[0].is_market());
  EXPECT_FALSE(q->relations[1].is_market());
}

TEST_F(BinderTest, UnknownTableFails) {
  EXPECT_EQ(BindSql("SELECT * FROM Nope").status().code(),
            Status::Code::kNotFound);
}

TEST_F(BinderTest, SelfJoinUnsupported) {
  EXPECT_EQ(BindSql("SELECT * FROM Station, Station").status().code(),
            Status::Code::kNotSupported);
}

TEST_F(BinderTest, PointConditionPushedIntoCall) {
  Result<BoundQuery> q =
      BindSql("SELECT * FROM Weather WHERE Country = 'US'");
  ASSERT_TRUE(q.ok());
  const market::AttrCondition& cond = q->relations[0].conditions[0];
  EXPECT_EQ(cond.kind, market::AttrCondition::Kind::kPoint);
  EXPECT_EQ(cond.point, Value("US"));
}

TEST_F(BinderTest, RangeBoundsFoldIntoOneInterval) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Weather WHERE Date >= 10 AND Date <= 20 AND Date < 18");
  ASSERT_TRUE(q.ok());
  const market::AttrCondition& cond = q->relations[0].conditions[2];
  EXPECT_EQ(cond.kind, market::AttrCondition::Kind::kRange);
  EXPECT_EQ(cond.range, Interval(10, 17));
}

TEST_F(BinderTest, StrictBoundsBecomeClosedIntervals) {
  Result<BoundQuery> q =
      BindSql("SELECT * FROM Weather WHERE Date > 10 AND Date < 20");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->relations[0].conditions[2].range, Interval(11, 19));
}

TEST_F(BinderTest, ContradictoryEqualitiesMarkEmpty) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'US' AND Country = 'Canada'");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->relations[0].always_empty);
}

TEST_F(BinderTest, EqOutsideRangeMarksEmpty) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Weather WHERE Date = 5 AND Date >= 10");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->relations[0].always_empty);
}

TEST_F(BinderTest, EmptyRangeMarksEmpty) {
  Result<BoundQuery> q =
      BindSql("SELECT * FROM Weather WHERE Date >= 20 AND Date <= 10");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->relations[0].always_empty);
}

TEST_F(BinderTest, OutputAttrPredicateBecomesResidual) {
  Result<BoundQuery> q =
      BindSql("SELECT * FROM Weather WHERE Temperature >= 20.5");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->residuals.size(), 1u);
  EXPECT_EQ(q->residuals[0].op, CompareOp::kGe);
  EXPECT_TRUE(q->relations[0].conditions[3].is_none());
}

TEST_F(BinderTest, NotEqualIsResidual) {
  Result<BoundQuery> q =
      BindSql("SELECT * FROM Weather WHERE Date <> 5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->residuals.size(), 1u);
  EXPECT_TRUE(q->relations[0].conditions[2].is_none());
}

TEST_F(BinderTest, JoinEdgeExtraction) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Station, Weather "
      "WHERE Station.StationID = Weather.StationID");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->joins.size(), 1u);
  EXPECT_EQ(q->joins[0].left.rel, 0u);
  EXPECT_EQ(q->joins[0].right.rel, 1u);
}

TEST_F(BinderTest, ChainedEqualityPropagatesConstant) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Station, Weather "
      "WHERE Station.Country = Weather.Country = 'US' AND "
      "Station.StationID = Weather.StationID");
  ASSERT_TRUE(q.ok());
  // Both relations end up constrained on Country (the Fig. 1 plans).
  EXPECT_EQ(q->relations[0].conditions[0].kind,
            market::AttrCondition::Kind::kPoint);
  EXPECT_EQ(q->relations[1].conditions[0].kind,
            market::AttrCondition::Kind::kPoint);
}

TEST_F(BinderTest, RangePropagatesAcrossJoin) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Station, Weather "
      "WHERE Station.StationID = Weather.StationID AND "
      "Weather.StationID >= 5 AND Weather.StationID <= 9");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->relations[0].conditions[1].range, Interval(5, 9));
}

TEST_F(BinderTest, PropagatedValueOutsideDomainMarksEmpty) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Station, ZipMap "
      "WHERE Station.StationID = ZipMap.ZipCode AND Station.StationID = 50");
  ASSERT_TRUE(q.ok());
  // 50 is outside ZipMap's [10000, 10099] zip domain: the join is empty.
  EXPECT_TRUE(q->relations[1].always_empty);
}

TEST_F(BinderTest, ParameterSubstitution) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?",
      {Value("US"), Value(int64_t{5}), Value(int64_t{10})});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->relations[0].conditions[0].point, Value("US"));
  EXPECT_EQ(q->relations[0].conditions[2].range, Interval(5, 10));
}

TEST_F(BinderTest, MissingParametersFail) {
  EXPECT_EQ(BindSql("SELECT * FROM Weather WHERE Date >= ?").status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(BinderTest, TypeMismatchFails) {
  EXPECT_FALSE(BindSql("SELECT * FROM Weather WHERE Country = 5").ok());
  EXPECT_FALSE(BindSql("SELECT * FROM Weather WHERE Date = 'abc'").ok());
}

TEST_F(BinderTest, IntCoercesToDoubleColumn) {
  Result<BoundQuery> q =
      BindSql("SELECT * FROM Weather WHERE Temperature >= 20");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->residuals[0].literal, Value(20.0));
}

TEST_F(BinderTest, AmbiguousColumnFails) {
  EXPECT_EQ(BindSql("SELECT * FROM Station, Weather WHERE Country = 'US'")
                .status()
                .code(),
            Status::Code::kInvalidArgument);
}

TEST_F(BinderTest, UnknownColumnFails) {
  EXPECT_EQ(BindSql("SELECT Nope FROM Station").status().code(),
            Status::Code::kNotFound);
}

TEST_F(BinderTest, GroupByValidation) {
  EXPECT_TRUE(BindSql(
      "SELECT Country, COUNT(*) FROM Station GROUP BY Country").ok());
  // Plain column not in GROUP BY.
  EXPECT_FALSE(BindSql(
      "SELECT StationID, COUNT(*) FROM Station GROUP BY Country").ok());
  // GROUP BY without aggregates.
  EXPECT_EQ(BindSql("SELECT Country FROM Station GROUP BY Country")
                .status()
                .code(),
            Status::Code::kNotSupported);
}

TEST_F(BinderTest, NonEqColumnComparisonUnsupported) {
  EXPECT_EQ(BindSql("SELECT * FROM Station, Weather "
                    "WHERE Station.StationID < Weather.StationID")
                .status()
                .code(),
            Status::Code::kNotSupported);
}

TEST_F(BinderTest, QueryRegionReflectsConditions) {
  Result<BoundQuery> q = BindSql(
      "SELECT * FROM Weather WHERE Country = 'Canada' AND Date >= 100 AND "
      "Date <= 200");
  ASSERT_TRUE(q.ok());
  const Box region = q->relations[0].QueryRegion();
  EXPECT_EQ(region.dim(0), Interval::Point(0));
  EXPECT_EQ(region.dim(1), Interval(1, 100));
  EXPECT_EQ(region.dim(2), Interval(100, 200));
}

TEST_F(BinderTest, SelectItemNamesAndAliases) {
  Result<BoundQuery> q = BindSql(
      "SELECT Country AS c, AVG(Temperature) FROM Weather GROUP BY Country");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].output_name, "c");
  EXPECT_EQ(q->select[1].output_name, "AVG(Temperature)");
}

TEST_F(BinderTest, HasAggregatesAndJoinsOf) {
  Result<BoundQuery> q = BindSql(
      "SELECT COUNT(*) FROM Station, Weather "
      "WHERE Station.StationID = Weather.StationID");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->HasAggregates());
  EXPECT_EQ(q->JoinsOf(0).size(), 1u);
  EXPECT_EQ(q->JoinsOf(1).size(), 1u);
}

TEST_F(BinderTest, OnlyCountTakesStar) {
  EXPECT_TRUE(BindSql("SELECT COUNT(*) FROM Station").ok());
  for (const char* sql :
       {"SELECT SUM(*) FROM Station", "SELECT AVG(*) FROM Station",
        "SELECT MIN(*) FROM Station", "SELECT MAX(*), COUNT(*) FROM Station"}) {
    SCOPED_TRACE(sql);
    EXPECT_EQ(BindSql(sql).status().code(), Status::Code::kInvalidArgument);
  }
}

}  // namespace
}  // namespace payless::sql
