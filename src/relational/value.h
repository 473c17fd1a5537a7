// A single attribute value: NULL, 64-bit integer, double, or string.

#ifndef FRO_RELATIONAL_VALUE_H_
#define FRO_RELATIONAL_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "relational/tribool.h"

namespace fro {

/// An attribute value. Values are immutable once constructed.
///
/// Two notions of comparison coexist:
///  * `Value::Equals` / `operator==` is *structural* identity (null equals
///    null); it is what bag semantics, hashing, and duplicate elimination
///    use.
///  * `CompareSql` implements SQL semantics: any comparison involving a
///    null is Unknown. Predicates use this.
class Value {
 public:
  enum class Kind : uint8_t { kNull = 0, kInt, kDouble, kString };

  /// Constructs NULL.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }

  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Check-free payload reads for hot loops: the payload when the value
  /// has that kind, otherwise null.
  const int64_t* IfInt() const { return std::get_if<int64_t>(&rep_); }
  const double* IfDouble() const { return std::get_if<double>(&rep_); }
  const std::string* IfString() const {
    return std::get_if<std::string>(&rep_);
  }

  /// Numeric reading of an int or double value (ints widen losslessly for
  /// the magnitudes this library uses).
  double NumericValue() const;

  /// Structural equality: null == null, 1 != 1.0 ("int" and "double" are
  /// distinct kinds even when numerically equal).
  bool Equals(const Value& other) const { return rep_ == other.rep_; }
  bool operator==(const Value& other) const { return Equals(other); }

  /// Structural total order (by kind, then value); used for canonical row
  /// sorting in bag comparison and printing.
  bool operator<(const Value& other) const;

  size_t Hash() const;

  /// SQL comparison: nullopt when either side is null or the kinds are not
  /// comparable (string vs numeric); otherwise <0 / 0 / >0.
  static std::optional<int> CompareSql(const Value& a, const Value& b);

  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// SQL comparison outcomes as TriBool (Unknown on null / incomparable).
TriBool SqlEq(const Value& a, const Value& b);
TriBool SqlNe(const Value& a, const Value& b);
TriBool SqlLt(const Value& a, const Value& b);
TriBool SqlLe(const Value& a, const Value& b);
TriBool SqlGt(const Value& a, const Value& b);
TriBool SqlGe(const Value& a, const Value& b);

}  // namespace fro

#endif  // FRO_RELATIONAL_VALUE_H_
