// Columnar value storage: per-attribute value vectors with explicit null
// masks, the storage half of the batch engine's columnar layout.
//
// A ColumnVector holds one attribute's values contiguously. Columns whose
// non-null values are all ints (or all doubles) keep a dense typed array
// the SIMD-friendly kernels (VectorPredicate, HashColumns) loop over;
// anything else — strings, mixed numeric kinds — demotes to a generic
// Value array that the same kernels handle with scalar loops. Either way
// nulls live in a separate byte mask, which is how the paper's 3VL maps
// onto columnar data: the value array answers "what is it?", the null
// mask answers "is it there?", and predicate kernels combine the two
// under Kleene logic without ever materializing a null Value.
//
// The mask is one byte per row rather than a packed bitmap: mask
// combination (AND/OR of 3VL truth masks) then auto-vectorizes to plain
// byte ops with no cross-lane bit extraction, and a byte load per row is
// the same cost as the value load it accompanies (DESIGN.md §10).

#ifndef FRO_RELATIONAL_COLUMN_H_
#define FRO_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <vector>

#include "relational/value.h"

namespace fro {

/// One attribute's values, stored contiguously with a separate null mask.
class ColumnVector {
 public:
  /// Storage tag. kEmpty means no non-null value has been appended yet
  /// (an all-null column stays kEmpty); kInt/kDouble are the dense typed
  /// layouts; kGeneric is the exact-Value fallback.
  enum class Tag : uint8_t { kEmpty = 0, kInt, kDouble, kGeneric };

  ColumnVector() = default;

  size_t size() const { return nulls_.size(); }
  Tag tag() const { return tag_; }

  /// Forgets all values but keeps the underlying capacity, so refilling
  /// a recycled column performs no allocations at steady state.
  void Clear() {
    tag_ = Tag::kEmpty;
    ints_.clear();
    dbls_.clear();
    vals_.clear();
    nulls_.clear();
  }

  void Reserve(size_t n) { nulls_.reserve(n); }

  /// Appends a value, demoting the storage tag if the kind does not
  /// match (int into a double column, any string, ...). Exactness is
  /// preserved: ValueAt(i) always reproduces the appended Value.
  void Append(const Value& v);
  void AppendNull();

  /// Appends src's i-th value. Same-tag typed columns copy one scalar;
  /// mismatches fall back to Append(ValueAt).
  void AppendFrom(const ColumnVector& src, size_t i);

  /// Index entry meaning "append NULL instead of gathering" — the
  /// outerjoin padding row marker in AppendGather index lists.
  static constexpr uint32_t kNullIndex = UINT32_MAX;

  /// Bulk AppendFrom: appends src's values at idx[0..n); idx[i] ==
  /// kNullIndex appends NULL. Typed sources landing in a same-tag (or
  /// fresh) destination run one tight gather loop per value array —
  /// the hash join flushes a whole output batch per column this way
  /// instead of tag-dispatching per value.
  void AppendGather(const ColumnVector& src, const uint32_t* idx, size_t n);

  const uint8_t* null_mask() const { return nulls_.data(); }
  bool is_null(size_t i) const { return nulls_[i] != 0; }

  /// Dense typed storage; valid only for the matching tag. Null rows
  /// hold an unspecified placeholder — consult the null mask first.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return dbls_.data(); }
  /// Generic storage; valid only for kGeneric.
  const Value* generic() const { return vals_.data(); }

  /// The exact value at i (null rows yield Value::Null()); any tag.
  Value ValueAt(size_t i) const;

  /// The SQL-comparison reading of a typed numeric value: ints widen to
  /// double exactly as Value::CompareSql does. Typed non-null rows only.
  double NumericAt(size_t i) const {
    return tag_ == Tag::kInt ? static_cast<double>(ints_[i]) : dbls_[i];
  }

 private:
  void Demote();

  Tag tag_ = Tag::kEmpty;
  std::vector<int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<Value> vals_;
  std::vector<uint8_t> nulls_;  // 1 = NULL; parallel to the value storage
};

/// The hash the flat numeric probe tables key on: the normalized key's
/// bit pattern spread by a multiply/xor-shift mix (ints widened to
/// doubles leave most entropy in the high mantissa bits; the multiply
/// diffuses it). Shared by the hash-join build and HashColumns so both
/// sides of a probe agree.
inline uint64_t HashNumericKey(double key) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(key));
  __builtin_memcpy(&bits, &key, sizeof(bits));
  bits *= 0x9E3779B97F4A7C15ull;
  bits ^= bits >> 32;
  return bits;
}

/// NormalizeHashKeyValue restricted to a typed numeric column row: the
/// normalized double (ints widened, -0.0 collapsed to +0.0). Call only
/// for non-null rows of kInt/kDouble columns.
inline double NormalizedNumericKey(const ColumnVector& col, size_t i) {
  const double d = col.NumericAt(i);
  return d == 0.0 ? 0.0 : d;
}

/// Batched equi-key hashing: for rows [offset, offset+n) of the key
/// columns, writes the normalized key and its hash into out_keys /
/// out_hashes and sets out_has_key to 0 where any key column is null or
/// non-numeric (such rows never probe — a null key matches nothing and a
/// non-numeric key cannot equal an all-numeric build key). Indices into
/// the out arrays are batch-relative (row `offset + i` lands at `i`).
/// Multi-column keys mix per-column hashes left to right. out_keys may
/// be null when only hashes are needed (multi-column callers).
/// Returns false — leaving the outputs unspecified — when some column is
/// generic (mixed kinds / strings), in which case callers must use the
/// row-at-a-time probe path.
bool HashColumns(const std::vector<const ColumnVector*>& cols, size_t offset,
                 size_t n, double* out_keys, uint64_t* out_hashes,
                 uint8_t* out_has_key);

}  // namespace fro

#endif  // FRO_RELATIONAL_COLUMN_H_
