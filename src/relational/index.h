// In-memory hash index over one or more columns of a relation.

#ifndef FRO_RELATIONAL_INDEX_H_
#define FRO_RELATIONAL_INDEX_H_

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "relational/relation.h"
#include "relational/snapshot.h"

namespace fro {

/// Hash index mapping a key (the values at `key_positions`, in that
/// order) to the row indices holding it, under SQL equality: key values
/// are indexed as NormalizeHashKeyValue makes them (ints widen to
/// double), so 1 and 1.0 are one key. Rows whose key contains a null are not indexed: under SQL
/// semantics a null key can never equi-match, which is exactly the
/// behaviour joins need.
class HashIndex {
 public:
  /// Builds an index on `relation`'s columns at `key_positions`; the
  /// index keeps copies of the key values, not references to the
  /// relation.
  HashIndex(const Relation& relation, std::vector<size_t> key_positions);

  /// Row indices whose key equals `key` under SQL equality. Keys
  /// containing nulls return no rows.
  const std::vector<size_t>& Probe(const std::vector<Value>& key) const;

  /// Borrowed-key probe: the same lookup over `len` values at `key`
  /// without materializing an owned key vector (heterogeneous unordered
  /// lookup). Lets callers reuse a scratch buffer across probes; a key
  /// already normalized (NormalizeHashKeyValue) is probed without a copy.
  const std::vector<size_t>& Probe(const Value* key, size_t len) const;

  size_t num_keys() const { return buckets_.size(); }
  /// Rows indexed (those with a non-null key).
  size_t num_rows() const { return num_rows_; }
  /// Approximate heap footprint.
  size_t bytes() const;
  const std::vector<size_t>& key_positions() const { return key_positions_; }

 private:
  /// Non-owning view of a probe key; hashed and compared exactly like an
  /// owned key vector so it can stand in for one during lookup.
  struct KeyView {
    const Value* data;
    size_t len;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const std::vector<Value>& key) const;
    size_t operator()(const KeyView& key) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
    bool operator()(const KeyView& a, const std::vector<Value>& b) const;
    bool operator()(const std::vector<Value>& a, const KeyView& b) const;
  };

  std::vector<size_t> key_positions_;
  std::unordered_map<std::vector<Value>, std::vector<size_t>, KeyHash, KeyEq>
      buckets_;
  std::vector<size_t> empty_;
  size_t num_rows_ = 0;
};

/// The snapshot's HashIndex on `key_attrs` (attributes of its scheme, in
/// this order), built on first request and kept with the snapshot's
/// body, so every renaming of the version shares it.
std::shared_ptr<const HashIndex> SnapshotHashIndex(
    const RelationSnapshot& snapshot, const std::vector<AttrId>& key_attrs);

}  // namespace fro

#endif  // FRO_RELATIONAL_INDEX_H_
