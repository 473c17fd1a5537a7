// A single attribute value: NULL, 64-bit integer, double, or string.

#ifndef FRO_RELATIONAL_VALUE_H_
#define FRO_RELATIONAL_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

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
///
/// Layout: 16 bytes, an 8-byte payload and a 1-byte kind. Ints and
/// doubles live inline. A string lives in a heap block holding its
/// reference count and the immutable `std::string`; copies share the
/// block (a relaxed increment), the last owner to drop it deletes it.
/// Copying and destroying values that share a block is safe from any
/// number of threads. A moved-from value is null.
class Value {
 public:
  enum class Kind : uint8_t { kNull = 0, kInt, kDouble, kString };

  /// Constructs NULL.
  Value() noexcept : i_(0), kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.kind_ = Kind::kInt;
    out.i_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.kind_ = Kind::kDouble;
    out.d_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.kind_ = Kind::kString;
    out.s_ = new StringBlock{{1}, std::move(v)};
    return out;
  }

  Value(const Value& other) noexcept : kind_(other.kind_) {
    CopyPayload(other);
    if (kind_ == Kind::kString) {
      s_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Value(Value&& other) noexcept : kind_(other.kind_) {
    CopyPayload(other);
    other.kind_ = Kind::kNull;
  }
  Value& operator=(const Value& other) noexcept {
    // Take the new reference before dropping the old one, so assigning a
    // value to itself (or to a sharer of its block) never frees the block.
    if (other.kind_ == Kind::kString) {
      other.s_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    kind_ = other.kind_;
    CopyPayload(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      kind_ = other.kind_;
      CopyPayload(other);
      other.kind_ = Kind::kNull;
    }
    return *this;
  }
  ~Value() { Release(); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Check-free payload reads for hot loops: the payload when the value
  /// has that kind, otherwise null.
  const int64_t* IfInt() const { return kind_ == Kind::kInt ? &i_ : nullptr; }
  const double* IfDouble() const {
    return kind_ == Kind::kDouble ? &d_ : nullptr;
  }
  const std::string* IfString() const {
    return kind_ == Kind::kString ? &s_->str : nullptr;
  }

  /// Numeric reading of an int or double value (ints widen losslessly for
  /// the magnitudes this library uses).
  double NumericValue() const;

  /// Structural equality: null == null, 1 != 1.0 ("int" and "double" are
  /// distinct kinds even when numerically equal); doubles compare with
  /// `==` (0.0 == -0.0, NaN != NaN).
  bool Equals(const Value& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case Kind::kNull:
        return true;
      case Kind::kInt:
        return i_ == other.i_;
      case Kind::kDouble:
        return d_ == other.d_;
      case Kind::kString:
        return s_ == other.s_ || s_->str == other.s_->str;
    }
    return false;
  }
  bool operator==(const Value& other) const { return Equals(other); }

  /// Structural total order (by kind, then value); used for canonical row
  /// sorting in bag comparison and printing.
  bool operator<(const Value& other) const {
    if (kind_ != other.kind_) return kind_ < other.kind_;
    switch (kind_) {
      case Kind::kNull:
        return false;
      case Kind::kInt:
        return i_ < other.i_;
      case Kind::kDouble:
        return d_ < other.d_;
      case Kind::kString:
        return s_ != other.s_ && s_->str < other.s_->str;
    }
    return false;
  }

  /// `std::hash` of the payload; consistent with structural equality.
  size_t Hash() const {
    switch (kind_) {
      case Kind::kNull:
        return 0x9ae16a3b2f90404fULL;
      case Kind::kInt:
        return std::hash<int64_t>{}(i_);
      case Kind::kDouble:
        return std::hash<double>{}(d_);
      case Kind::kString:
        return std::hash<std::string>{}(s_->str);
    }
    return 0;
  }

  /// SQL comparison: nullopt when either side is null or the kinds are not
  /// comparable (string vs numeric); otherwise <0 / 0 / >0.
  static std::optional<int> CompareSql(const Value& a, const Value& b);

  std::string ToString() const;

 private:
  /// A string shared by every copy of the value that created it.
  struct StringBlock {
    std::atomic<uint32_t> refs;
    const std::string str;
  };

  /// Copies `other`'s payload bytes; the caller has set `kind_`.
  void CopyPayload(const Value& other) {
    std::memcpy(&i_, &other.i_, sizeof(i_));
  }
  void Release() {
    if (kind_ == Kind::kString &&
        s_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete s_;
    }
  }

  union {
    int64_t i_;
    double d_;
    StringBlock* s_;
  };
  Kind kind_;
};

static_assert(sizeof(Value) == 16, "Value is an 8-byte payload and a kind");

/// Combined hash of `len` values at `data`, in order (rows and keys).
size_t HashValues(const Value* data, size_t len);

/// SQL comparison outcomes as TriBool (Unknown on null / incomparable).
TriBool SqlEq(const Value& a, const Value& b);
TriBool SqlNe(const Value& a, const Value& b);
TriBool SqlLt(const Value& a, const Value& b);
TriBool SqlLe(const Value& a, const Value& b);
TriBool SqlGt(const Value& a, const Value& b);
TriBool SqlGe(const Value& a, const Value& b);

}  // namespace fro

#endif  // FRO_RELATIONAL_VALUE_H_
