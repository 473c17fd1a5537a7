#include "relational/column.h"

namespace fro {

void ColumnVector::Demote() {
  // Rebuild the generic array from whichever typed array was live. Null
  // rows become Value::Null(); the typed placeholder is discarded.
  vals_.clear();
  vals_.reserve(nulls_.size());
  for (size_t i = 0; i < nulls_.size(); ++i) {
    if (nulls_[i]) {
      vals_.push_back(Value::Null());
    } else if (tag_ == Tag::kInt) {
      vals_.push_back(Value::Int(ints_[i]));
    } else {
      vals_.push_back(Value::Double(dbls_[i]));
    }
  }
  ints_.clear();
  dbls_.clear();
  tag_ = Tag::kGeneric;
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  const Value::Kind kind = v.kind();
  switch (tag_) {
    case Tag::kEmpty:
      // First non-null value decides the layout; backfill placeholders
      // for the all-null prefix.
      if (kind == Value::Kind::kInt) {
        tag_ = Tag::kInt;
        ints_.assign(nulls_.size(), 0);
        ints_.push_back(v.AsInt());
      } else if (kind == Value::Kind::kDouble) {
        tag_ = Tag::kDouble;
        dbls_.assign(nulls_.size(), 0.0);
        dbls_.push_back(v.AsDouble());
      } else {
        tag_ = Tag::kGeneric;
        vals_.assign(nulls_.size(), Value::Null());
        vals_.push_back(v);
      }
      break;
    case Tag::kInt:
      if (kind == Value::Kind::kInt) {
        ints_.push_back(v.AsInt());
      } else {
        Demote();
        vals_.push_back(v);
      }
      break;
    case Tag::kDouble:
      if (kind == Value::Kind::kDouble) {
        dbls_.push_back(v.AsDouble());
      } else {
        Demote();
        vals_.push_back(v);
      }
      break;
    case Tag::kGeneric:
      vals_.push_back(v);
      break;
  }
  nulls_.push_back(0);
}

void ColumnVector::AppendNull() {
  switch (tag_) {
    case Tag::kEmpty:
      break;
    case Tag::kInt:
      ints_.push_back(0);
      break;
    case Tag::kDouble:
      dbls_.push_back(0.0);
      break;
    case Tag::kGeneric:
      vals_.push_back(Value::Null());
      break;
  }
  nulls_.push_back(1);
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.nulls_[i]) {
    AppendNull();
    return;
  }
  if (tag_ == src.tag_) {
    switch (tag_) {
      case Tag::kInt:
        ints_.push_back(src.ints_[i]);
        nulls_.push_back(0);
        return;
      case Tag::kDouble:
        dbls_.push_back(src.dbls_[i]);
        nulls_.push_back(0);
        return;
      case Tag::kGeneric:
        vals_.push_back(src.vals_[i]);
        nulls_.push_back(0);
        return;
      case Tag::kEmpty:
        break;  // unreachable: a non-null row implies a decided tag
    }
  }
  Append(src.ValueAt(i));
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* idx,
                                size_t n) {
  if (n == 0) return;
  // Fast path: typed source into a destination that already has (or can
  // freshly adopt) the same tag. An all-null destination prefix (kEmpty
  // with rows) needs Append()'s placeholder backfill, so it falls
  // through to the scalar loop, as do generic and mismatched columns.
  if ((src.tag_ == Tag::kInt || src.tag_ == Tag::kDouble) &&
      (tag_ == src.tag_ || (tag_ == Tag::kEmpty && nulls_.empty()))) {
    const size_t base = nulls_.size();
    nulls_.resize(base + n);
    tag_ = src.tag_;
    if (tag_ == Tag::kInt) {
      ints_.resize(base + n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t j = idx[i];
        const bool pad = j == kNullIndex;
        ints_[base + i] = pad ? 0 : src.ints_[j];
        nulls_[base + i] = pad ? 1 : src.nulls_[j];
      }
    } else {
      dbls_.resize(base + n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t j = idx[i];
        const bool pad = j == kNullIndex;
        dbls_[base + i] = pad ? 0.0 : src.dbls_[j];
        nulls_[base + i] = pad ? 1 : src.nulls_[j];
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (idx[i] == kNullIndex) {
      AppendNull();
    } else {
      AppendFrom(src, idx[i]);
    }
  }
}

Value ColumnVector::ValueAt(size_t i) const {
  if (nulls_[i]) return Value::Null();
  switch (tag_) {
    case Tag::kInt:
      return Value::Int(ints_[i]);
    case Tag::kDouble:
      return Value::Double(dbls_[i]);
    case Tag::kGeneric:
      return vals_[i];
    case Tag::kEmpty:
      break;  // unreachable: kEmpty columns are all null
  }
  return Value::Null();
}

bool HashColumns(const std::vector<const ColumnVector*>& cols, size_t offset,
                 size_t n, double* out_keys, uint64_t* out_hashes,
                 uint8_t* out_has_key) {
  for (const ColumnVector* col : cols) {
    if (col->tag() == ColumnVector::Tag::kGeneric) return false;
  }
  bool first = true;
  for (const ColumnVector* col : cols) {
    const uint8_t* nulls = col->null_mask() + offset;
    if (col->tag() == ColumnVector::Tag::kEmpty) {
      // All-null key column: no row has a key. (kEmpty has no value
      // array to read, so handle it before the typed loops.)
      for (size_t i = 0; i < n; ++i) out_has_key[i] = 0;
      return true;
    }
    if (first) {
      for (size_t i = 0; i < n; ++i) out_has_key[i] = !nulls[i];
    } else {
      for (size_t i = 0; i < n; ++i) out_has_key[i] &= !nulls[i];
    }
    // Separate tight loops per tag so each body is a contiguous
    // load/normalize/hash chain the compiler can vectorize.
    if (col->tag() == ColumnVector::Tag::kInt) {
      const int64_t* v = col->ints() + offset;
      for (size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(v[i]);
        const double key = d == 0.0 ? 0.0 : d;
        const uint64_t h = HashNumericKey(key);
        if (out_keys != nullptr) out_keys[i] = key;
        out_hashes[i] = first ? h : (out_hashes[i] * 0x100000001B3ull) ^ h;
      }
    } else {
      const double* v = col->doubles() + offset;
      for (size_t i = 0; i < n; ++i) {
        const double key = v[i] == 0.0 ? 0.0 : v[i];
        const uint64_t h = HashNumericKey(key);
        if (out_keys != nullptr) out_keys[i] = key;
        out_hashes[i] = first ? h : (out_hashes[i] * 0x100000001B3ull) ^ h;
      }
    }
    first = false;
  }
  if (first) {
    // No key columns at all: treat as "no key" everywhere.
    for (size_t i = 0; i < n; ++i) out_has_key[i] = 0;
  }
  return true;
}

}  // namespace fro
