#include "relational/tuple.h"

namespace fro {

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> out;
  out.reserve(values_.size() + other.values_.size());
  out.insert(out.end(), values_.begin(), values_.end());
  out.insert(out.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(out));
}

void Tuple::AssignConcat(const Tuple& a, const Tuple& b) {
  values_.resize(a.values_.size() + b.values_.size());
  size_t i = 0;
  for (const Value& v : a.values_) values_[i++] = v;
  for (const Value& v : b.values_) values_[i++] = v;
}

void Tuple::AssignConcatNulls(const Tuple& a, size_t null_count) {
  values_.resize(a.values_.size() + null_count);
  size_t i = 0;
  for (const Value& v : a.values_) values_[i++] = v;
  for (; i < values_.size(); ++i) values_[i] = Value::Null();
}

void Tuple::AssignMapped(const Tuple& src, const std::vector<int>& positions) {
  values_.resize(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] < 0) {
      values_[i] = Value::Null();
    } else {
      values_[i] = src.value(static_cast<size_t>(positions[i]));
    }
  }
}

size_t Tuple::Hash() const {
  return HashValues(values_.data(), values_.size());
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace fro
