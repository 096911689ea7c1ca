#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "common/compare.h"

namespace payless {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int64());
  EXPECT_FALSE(v.is_double());
  EXPECT_FALSE(v.is_string());
}

TEST(ValueTest, Int64Roundtrip) {
  Value v(int64_t{42});
  ASSERT_TRUE(v.is_int64());
  EXPECT_EQ(v.AsInt64(), 42);
  EXPECT_EQ(v.type(), ValueType::kInt64);
}

TEST(ValueTest, DoubleRoundtrip) {
  Value v(3.25);
  ASSERT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.25);
  EXPECT_EQ(v.type(), ValueType::kDouble);
}

TEST(ValueTest, StringRoundtrip) {
  Value v("Seattle");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "Seattle");
  EXPECT_EQ(v.type(), ValueType::kString);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{7}), Value(7.0));
  EXPECT_NE(Value(int64_t{7}), Value(7.5));
}

TEST(ValueTest, NumericCrossTypeHashAgrees) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
}

TEST(ValueTest, IntegerComparisonIsExactForLargeKeys) {
  // Values differing only in low bits beyond double precision.
  const int64_t a = (int64_t{1} << 60) + 1;
  const int64_t b = (int64_t{1} << 60) + 2;
  EXPECT_LT(Value(a), Value(b));
  EXPECT_NE(Value(a), Value(b));
}

TEST(ValueTest, NullComparesLessThanEverything) {
  EXPECT_LT(Value::Null(), Value(int64_t{-100}));
  EXPECT_LT(Value::Null(), Value("a"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("Berlin"), Value("Canada"));
  EXPECT_GT(Value("b"), Value("a"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, HeterogeneousComparisonIsTotal) {
  const Value num(int64_t{1});
  const Value str("1");
  EXPECT_NE(num.Compare(str), 0);
  EXPECT_EQ(num.Compare(str), -str.Compare(num));
}

TEST(ValueTest, AsNumericCoversBothNumericTypes) {
  EXPECT_DOUBLE_EQ(Value(int64_t{5}).AsNumeric(), 5.0);
  EXPECT_DOUBLE_EQ(Value(5.5).AsNumeric(), 5.5);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

// A double prints as a default-formatted stream prints it (six significant
// digits), over special values, random magnitudes and random bit patterns.
TEST(ValueTest, DoubleToStringMatchesTheDefaultStream) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0,     -0.0,    1e300,   -1e300, 5e-324,
                                -5e-324, kInf,    -kInf,   kNan,   -kNan,
                                0.1,     1234567, 123456.5, 1e-5,  9.999995};
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-320, 308);
  for (int i = 0; i < 100'000; ++i) {
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
    const uint64_t bits = rng();
    double pattern;
    std::memcpy(&pattern, &bits, sizeof(pattern));
    values.push_back(pattern);
  }
  size_t mismatches = 0;
  for (const double d : values) {
    std::ostringstream os;
    os << d;
    if (Value(d).ToString() != os.str() && ++mismatches <= 5) {
      ADD_FAILURE() << "ToString " << Value(d).ToString() << ", stream "
                    << os.str();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RowTest, HashRowDistinguishesOrder) {
  const Row a = {Value(int64_t{1}), Value(int64_t{2})};
  const Row b = {Value(int64_t{2}), Value(int64_t{1})};
  EXPECT_NE(HashRow(a), HashRow(b));
}

TEST(RowTest, HashRowStable) {
  const Row a = {Value("x"), Value(int64_t{9})};
  const Row b = {Value("x"), Value(int64_t{9})};
  EXPECT_EQ(HashRow(a), HashRow(b));
}

TEST(RowTest, RowToStringFormats) {
  EXPECT_EQ(RowToString({Value(int64_t{1}), Value("a")}), "(1, 'a')");
  EXPECT_EQ(RowToString({}), "()");
}

TEST(CompareTest, AllOperators) {
  const Value a(int64_t{1});
  const Value b(int64_t{2});
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLt, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLe, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLe, a));
  EXPECT_TRUE(EvalCompare(b, CompareOp::kGt, a));
  EXPECT_TRUE(EvalCompare(b, CompareOp::kGe, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kEq, a));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kNe, b));
  EXPECT_FALSE(EvalCompare(a, CompareOp::kEq, b));
}

TEST(CompareTest, NullNeverMatches) {
  for (const CompareOp op :
       {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(EvalCompare(Value::Null(), op, Value(int64_t{1})));
    EXPECT_FALSE(EvalCompare(Value(int64_t{1}), op, Value::Null()));
    EXPECT_FALSE(EvalCompare(Value::Null(), op, Value::Null()));
  }
}

TEST(CompareTest, OpNames) {
  EXPECT_STREQ(CompareOpName(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpName(CompareOp::kNe), "<>");
  EXPECT_STREQ(CompareOpName(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpName(CompareOp::kGe), ">=");
}

// Property sweep: Compare is antisymmetric and consistent with the derived
// operators over a mixed value pool.
class ValueCompareProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValueCompareProperty, AntisymmetricAndConsistent) {
  const std::vector<Value> pool = {
      Value::Null(),       Value(int64_t{-5}), Value(int64_t{0}),
      Value(int64_t{7}),   Value(-2.5),        Value(7.0),
      Value(100.25),       Value(""),          Value("Seattle"),
      Value("zebra"),
  };
  const int i = GetParam();
  const Value& a = pool[static_cast<size_t>(i) % pool.size()];
  for (const Value& b : pool) {
    EXPECT_EQ(a.Compare(b), -b.Compare(a));
    EXPECT_EQ(a == b, a.Compare(b) == 0);
    EXPECT_EQ(a < b, a.Compare(b) < 0);
    if (a == b) {
      EXPECT_EQ(a.Hash(), b.Hash());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, ValueCompareProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace payless
