#include "relational/index.h"

#include "common/check.h"

namespace fro {

namespace {

bool KeySpanEquals(const Value* a, size_t a_len, const std::vector<Value>& b) {
  if (a_len != b.size()) return false;
  for (size_t i = 0; i < a_len; ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

size_t HashIndex::KeyHash::operator()(const std::vector<Value>& key) const {
  return HashValues(key.data(), key.size());
}

size_t HashIndex::KeyHash::operator()(const KeyView& key) const {
  return HashValues(key.data, key.len);
}

bool HashIndex::KeyEq::operator()(const std::vector<Value>& a,
                                  const std::vector<Value>& b) const {
  return a == b;
}

bool HashIndex::KeyEq::operator()(const KeyView& a,
                                  const std::vector<Value>& b) const {
  return KeySpanEquals(a.data, a.len, b);
}

bool HashIndex::KeyEq::operator()(const std::vector<Value>& a,
                                  const KeyView& b) const {
  return KeySpanEquals(b.data, b.len, a);
}

HashIndex::HashIndex(const Relation& relation,
                     const std::vector<AttrId>& key_attrs)
    : key_attrs_(key_attrs) {
  std::vector<int> positions;
  positions.reserve(key_attrs.size());
  for (AttrId attr : key_attrs) {
    int pos = relation.scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0) << "index key attribute not in relation scheme";
    positions.push_back(pos);
  }
  for (size_t i = 0; i < relation.NumRows(); ++i) {
    std::vector<Value> key;
    key.reserve(positions.size());
    bool has_null = false;
    for (int pos : positions) {
      const Value& v = relation.row(i).value(static_cast<size_t>(pos));
      if (v.is_null()) {
        has_null = true;
        break;
      }
      key.push_back(v);
    }
    if (has_null) continue;  // null keys never equi-match
    buckets_[std::move(key)].push_back(i);
  }
}

const std::vector<size_t>& HashIndex::Probe(
    const std::vector<Value>& key) const {
  return Probe(key.data(), key.size());
}

const std::vector<size_t>& HashIndex::Probe(const Value* key,
                                            size_t len) const {
  for (size_t i = 0; i < len; ++i) {
    if (key[i].is_null()) return empty_;
  }
  auto it = buckets_.find(KeyView{key, len});
  return it == buckets_.end() ? empty_ : it->second;
}

}  // namespace fro
