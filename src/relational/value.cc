#include "relational/value.h"

#include "common/check.h"
#include "common/str_util.h"

namespace fro {

int64_t Value::AsInt() const {
  FRO_CHECK(kind() == Kind::kInt) << "Value::AsInt on " << ToString();
  return i_;
}

double Value::AsDouble() const {
  FRO_CHECK(kind() == Kind::kDouble) << "Value::AsDouble on " << ToString();
  return d_;
}

const std::string& Value::AsString() const {
  FRO_CHECK(kind() == Kind::kString) << "Value::AsString on " << ToString();
  return s_->str;
}

double Value::NumericValue() const {
  if (kind() == Kind::kInt) return static_cast<double>(i_);
  FRO_CHECK(kind() == Kind::kDouble) << "non-numeric Value " << ToString();
  return d_;
}

size_t HashValues(const Value* data, size_t len) {
  size_t h = 0x811c9dc5;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i].Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

std::optional<int> Value::CompareSql(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  const bool a_num = a.kind() == Kind::kInt || a.kind() == Kind::kDouble;
  const bool b_num = b.kind() == Kind::kInt || b.kind() == Kind::kDouble;
  if (a_num && b_num) {
    const double x = a.NumericValue();
    const double y = b.NumericValue();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.kind() == Kind::kString && b.kind() == Kind::kString) {
    return a.AsString().compare(b.AsString());
  }
  // Cross-kind (string vs numeric): incomparable -> Unknown.
  return std::nullopt;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "-";
    case Kind::kInt:
      return std::to_string(i_);
    case Kind::kDouble:
      return StrFormat("%g", d_);
    case Kind::kString:
      return "'" + s_->str + "'";
  }
  return "?";
}

namespace {

TriBool FromComparison(std::optional<int> cmp, bool (*test)(int)) {
  if (!cmp.has_value()) return TriBool::kUnknown;
  return test(*cmp) ? TriBool::kTrue : TriBool::kFalse;
}

}  // namespace

TriBool SqlEq(const Value& a, const Value& b) {
  return FromComparison(Value::CompareSql(a, b), [](int c) { return c == 0; });
}
TriBool SqlNe(const Value& a, const Value& b) {
  return FromComparison(Value::CompareSql(a, b), [](int c) { return c != 0; });
}
TriBool SqlLt(const Value& a, const Value& b) {
  return FromComparison(Value::CompareSql(a, b), [](int c) { return c < 0; });
}
TriBool SqlLe(const Value& a, const Value& b) {
  return FromComparison(Value::CompareSql(a, b), [](int c) { return c <= 0; });
}
TriBool SqlGt(const Value& a, const Value& b) {
  return FromComparison(Value::CompareSql(a, b), [](int c) { return c > 0; });
}
TriBool SqlGe(const Value& a, const Value& b) {
  return FromComparison(Value::CompareSql(a, b), [](int c) { return c >= 0; });
}

}  // namespace fro
