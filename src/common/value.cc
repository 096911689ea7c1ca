#include "common/value.h"

#include <cassert>
#include <charconv>
#include <cmath>

namespace payless {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

double Value::AsNumeric() const {
  if (is_int64()) return static_cast<double>(AsInt64());
  assert(is_double());
  return AsDouble();
}

ValueType Value::type() const {
  assert(!is_null());
  if (is_int64()) return ValueType::kInt64;
  if (is_double()) return ValueType::kDouble;
  return ValueType::kString;
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool self_numeric = is_int64() || is_double();
  const bool other_numeric = other.is_int64() || other.is_double();
  if (self_numeric && other_numeric) {
    // Exact path when both sides are integers; avoids double rounding for
    // large keys (e.g. 19-digit TPC-H synthetic keys would lose precision).
    if (is_int64() && other.is_int64()) {
      const int64_t a = AsInt64();
      const int64_t b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsNumeric();
    const double b = other.AsNumeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (self_numeric != other_numeric) {
    // Heterogeneous comparison (number vs string): order by type tag so the
    // comparator stays total; queries never rely on this ordering.
    return self_numeric ? -1 : 1;
  }
  return AsString().compare(other.AsString());
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_string()) return std::hash<std::string>()(AsString());
  // Hash all numerics through double so Value(1) and Value(1.0) collide,
  // matching operator==; integral doubles convert exactly for |v| < 2^53.
  const double d = AsNumeric();
  if (d == static_cast<double>(static_cast<int64_t>(d)) &&
      std::abs(d) < 9.0e18) {
    return std::hash<int64_t>()(static_cast<int64_t>(d));
  }
  return std::hash<double>()(d);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(AsInt64());
  if (is_double()) {
    // printf's %g, as a default-formatted stream writes it: six
    // significant digits, without the stream.
    char buf[32];
    const std::to_chars_result end =
        std::to_chars(buf, buf + sizeof(buf), AsDouble(),
                      std::chars_format::general, 6);
    return std::string(buf, end.ptr);
  }
  return "'" + AsString() + "'";
}

size_t HashRow(const Row& row) {
  size_t h = 0x345678;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace payless
