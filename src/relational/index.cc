#include "relational/index.h"

#include "common/check.h"
#include "relational/ops.h"

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
                     std::vector<size_t> key_positions)
    : key_positions_(std::move(key_positions)) {
  for (size_t pos : key_positions_) {
    FRO_CHECK_LT(pos, relation.scheme().size())
        << "index key position outside the relation's scheme";
  }
  for (size_t i = 0; i < relation.NumRows(); ++i) {
    std::vector<Value> key;
    key.reserve(key_positions_.size());
    bool has_null = false;
    for (size_t pos : key_positions_) {
      const Value& v = relation.row(i).value(pos);
      if (v.is_null()) {
        has_null = true;
        break;
      }
      key.push_back(NormalizeHashKeyValue(v));
    }
    if (has_null) continue;  // null keys never equi-match
    buckets_[std::move(key)].push_back(i);
    ++num_rows_;
  }
}

size_t HashIndex::bytes() const {
  // Per bucket: the node, its key values and its row list; plus the
  // bucket array.
  size_t total = buckets_.bucket_count() * sizeof(void*);
  for (const auto& [key, rows] : buckets_) {
    total += sizeof(std::pair<const std::vector<Value>, std::vector<size_t>>) +
             2 * sizeof(void*) + key.capacity() * sizeof(Value) +
             rows.capacity() * sizeof(size_t);
  }
  return total;
}

std::shared_ptr<const HashIndex> SnapshotHashIndex(
    const RelationSnapshot& snapshot, const std::vector<AttrId>& key_attrs) {
  std::vector<size_t> positions =
      snapshot.relation().scheme().PositionsOf(key_attrs);
  return snapshot.Derived<HashIndex>("hash-index", positions, [&] {
    return std::make_shared<const HashIndex>(snapshot.relation(), positions);
  });
}

const std::vector<size_t>& HashIndex::Probe(
    const std::vector<Value>& key) const {
  return Probe(key.data(), key.size());
}

const std::vector<size_t>& HashIndex::Probe(const Value* key,
                                            size_t len) const {
  bool normalized = true;
  for (size_t i = 0; i < len; ++i) {
    if (key[i].is_null()) return empty_;
    normalized &= key[i].kind() != Value::Kind::kInt;
  }
  if (!normalized) {
    std::vector<Value> widened(key, key + len);
    for (Value& v : widened) v = NormalizeHashKeyValue(v);
    return Probe(widened.data(), len);
  }
  auto it = buckets_.find(KeyView{key, len});
  return it == buckets_.end() ? empty_ : it->second;
}

}  // namespace fro
