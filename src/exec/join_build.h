// The build side of a join-like operator: the drained right input, its
// optional key index, and the column mirror columnar emission reads.
//
// One JoinBuildSide serves every consumer. A serial plan's join drains
// its own right child into a private one at Open(); behind a
// morsel-driven exchange (exec/morsel.h) the exchange drains the build
// subtree once into a shared one and every worker's join probes it. The
// probe surface is const and touches no mutable state, so any number of
// threads may probe one side concurrently once Build() has returned.
//
// When the build child is a bare base-relation scan, the key index is
// the relation snapshot's (relational/snapshot.h), keyed by column
// position: built by the first query over that relation version, under
// whichever renaming it reads, and reused by every later one. A
// reused build counts exactly like a fresh one: the child is still
// drained, so its reads, the join's counters, EXPLAIN ANALYZE and the
// feedback actuals are the same; only the table construction is
// skipped.

#ifndef FRO_EXEC_JOIN_BUILD_H_
#define FRO_EXEC_JOIN_BUILD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/batch_iterator.h"
#include "relational/column.h"
#include "relational/index.h"
#include "relational/relation.h"
#include "relational/snapshot.h"

namespace fro {

/// Resumable walk over the candidate build rows of one probe row, in
/// build order: a flat-table chain, a HashIndex bucket, or (unkeyed
/// build sides) every row.
class BuildMatches {
 public:
  bool done() const {
    if (list_ != nullptr) return pos_ >= list_->size();
    return chain_next_ != nullptr ? chain_ == 0 : pos_ >= end_;
  }

  /// The next candidate row; call only while !done().
  size_t Next() {
    if (list_ != nullptr) return (*list_)[pos_++];
    if (chain_next_ == nullptr) return pos_++;
    const size_t row = chain_ - 1;
    chain_ = chain_next_[row];
    return row;
  }

 private:
  friend class JoinBuildSide;
  const uint32_t* chain_next_ = nullptr;
  uint32_t chain_ = 0;  // next row on the chain, +1; 0 = done
  const std::vector<size_t>* list_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
};

/// A drained child's rows (DrainBuildInput).
struct DrainedRows {
  /// Set when the child streamed the whole of one relation version as
  /// contiguous zero-copy views (a bare scan): the rows are the
  /// snapshot's relation, and the child, which holds the snapshot, keeps
  /// them alive.
  const RelationSnapshot* snapshot = nullptr;
  /// Otherwise a copy of every row the child produced.
  Relation owned;

  const Relation& rows() const {
    return snapshot != nullptr ? snapshot->relation() : owned;
  }
};

/// Opens, drains and closes `child` in batches of `batch_capacity` rows.
/// The child is drained normally whatever it is, so its ExecStats equal
/// the evaluator's; a whole base relation is referenced, not copied.
DrainedRows DrainBuildInput(
    BatchIterator* child,
    size_t batch_capacity = TupleBatch::kDefaultCapacity);

/// The equi-key index over a build side's rows, immutable once built so
/// a snapshot can share it across queries and threads. When the key is
/// one column and every non-null build key is numeric, probes go through
/// a flat table with a Bloom prefilter; otherwise through a HashIndex.
class JoinKeyIndex {
 public:
  /// Indexes `rows` on the columns at `key_positions`. `key_column`,
  /// when given, is the single key's column over the same rows; a typed
  /// one lets the flat table read keys densely.
  JoinKeyIndex(const Relation& rows, const std::vector<size_t>& key_positions,
               const ColumnVector* key_column);

  bool flat() const { return flat_; }
  const uint32_t* flat_next() const { return fast_next_.data(); }
  void ResolveHeads(const double* keys, const uint64_t* hashes,
                    const uint8_t* has, size_t n, uint32_t* heads,
                    uint8_t* needs) const;
  /// The flat-table chain head (+1, 0 = no match) for one probe value.
  uint32_t FlatHead(const Value& key) const;
  /// The generic index; valid only when !flat().
  const HashIndex& hash() const { return *hash_; }

  size_t num_rows() const { return num_rows_; }
  size_t bytes() const;

 private:
  size_t num_rows_ = 0;
  bool flat_ = false;
  /// The flat table: keys normalized the way NormalizeHashKeyValue does
  /// (int widened to double), stored in a power-of-two open-addressing
  /// array; rows sharing a key are chained in build order through
  /// fast_next_, so match sets and match order are identical to the
  /// HashIndex path. Probing it is one contiguous-array lookup — no
  /// per-row Value materialization, no generic key hashing, no
  /// node-based map traversal.
  struct FastBucket {
    double key;
    uint32_t head;  // first build row with this key, +1; 0 = empty
  };
  std::vector<FastBucket> fast_buckets_;
  std::vector<uint32_t> fast_next_;  // row -> next row with same key, +1
  /// Bloom prefilter over the build keys (one bit per key from the top
  /// hash bits, sized at 16 bits per bucket so it stays cache-resident
  /// at ~6% of the bucket array): probes whose bit is clear skip the
  /// bucket search entirely — on selective joins most probes miss, and
  /// the miss answer comes from this small array instead of a random
  /// access into the large one.
  std::vector<uint8_t> fast_bloom_;
  uint64_t fast_bloom_mask_ = 0;
  size_t fast_mask_ = 0;
  /// Home bucket = hash >> fast_shift_ (the hash's TOP log2(cap) bits).
  /// The low bits are measurably non-uniform for small-integer doubles
  /// (their bit patterns share long runs of trailing zeros, and the
  /// multiply in HashNumericKey only propagates entropy upward), which
  /// produced linear-probe clusters dozens of buckets long; the top bits
  /// are well mixed and keep clusters near the theoretical minimum.
  size_t fast_shift_ = 64;
  std::unique_ptr<HashIndex> hash_;
};

class JoinBuildSide {
 public:
  /// A build side over rows of `scheme`, indexed on `keys` (equi-key
  /// attributes of `scheme`, paired positionally with the probe side's);
  /// with no keys it is an unindexed candidate set for nested loops.
  JoinBuildSide(Scheme scheme, std::vector<AttrId> keys);
  JoinBuildSide(const JoinBuildSide&) = delete;  // columns_ may point at rows_
  JoinBuildSide& operator=(const JoinBuildSide&) = delete;

  /// Drains `child` (DrainBuildInput), then indexes the rows: through
  /// the snapshot's shared key index after a whole base relation, else
  /// with a private one. Replaces whatever an earlier Build() left. The
  /// child's own counters account for the drain; the build side counts
  /// nothing.
  void Build(BatchIterator* child);

  /// Drops the rows and the index (Close); the scheme and keys stay.
  void Release();

  const Scheme& scheme() const { return scheme_; }
  const std::vector<AttrId>& keys() const { return keys_; }
  size_t NumRows() const { return num_rows_; }
  const Tuple& row(size_t i) const { return row_data_[i]; }

  /// Columnized mirror of the rows: the scanned relation's snapshot
  /// after a zero-copy drain, else a private one filled lazily (and
  /// thread-safely) per column.
  const RelationSnapshot& columns() const { return *columns_; }

  /// True when probes go through the flat table and its Bloom filter.
  bool flat() const { return index_ != nullptr && index_->flat(); }

  /// Flat table: the chain links, row -> next row with the same key, +1.
  const uint32_t* flat_next() const { return index_->flat_next(); }

  /// Flat table, dense batch probe: heads[i] = chain head (+1, 0 = no
  /// match) for the normalized keys/hashes HashColumns produced; rows
  /// with has[i] == 0 never match. `needs` is caller scratch of n bytes.
  void ResolveHeads(const double* keys, const uint64_t* hashes,
                    const uint8_t* has, size_t n, uint32_t* heads,
                    uint8_t* needs) const {
    index_->ResolveHeads(keys, hashes, has, n, heads, needs);
  }

  /// Candidates for one probe row: the rows whose key equals the row's
  /// values at `key_positions` (normalized; a null key matches nothing),
  /// or every row when the side has no keys. `scratch` holds the probe
  /// key for the generic index.
  BuildMatches Candidates(const Tuple& probe,
                          const std::vector<int>& key_positions,
                          std::vector<Value>* scratch) const;

  /// The flat-table chain starting at `head` (a ResolveHeads entry).
  BuildMatches Chain(uint32_t head) const;

 private:
  Scheme scheme_;
  std::vector<AttrId> keys_;
  DrainedRows rows_;
  const Tuple* row_data_ = nullptr;  // rows_'s storage, for probes
  size_t num_rows_ = 0;
  std::unique_ptr<RelationSnapshot> owned_columns_;  // over rows_.owned
  const RelationSnapshot* columns_ = nullptr;
  std::shared_ptr<const JoinKeyIndex> index_;  // null without keys
};

/// A join operator's build input. A serial plan's operator owns its
/// right child and drains it into a private JoinBuildSide at Open(); a
/// morsel worker's operator probes a side its exchange built once and
/// shares read-only (the exchange owns the build child then).
class JoinBuildInput {
 public:
  JoinBuildInput(BatchIteratorPtr child, std::vector<AttrId> keys);
  explicit JoinBuildInput(std::shared_ptr<const JoinBuildSide> shared);

  const Scheme& scheme() const { return side_->scheme(); }
  /// The owning operator's children(): the probe input, then the owned
  /// right child (a shared side's build subtree belongs to the exchange).
  std::vector<BatchIterator*> Children(BatchIterator* probe) const {
    if (child_ == nullptr) return {probe};
    return {probe, child_.get()};
  }
  const JoinBuildSide& side() const { return *side_; }

  /// Builds an owned side from the child; a shared side is left as is.
  void Open();
  /// Releases an owned side.
  void Close();

 private:
  BatchIteratorPtr child_;
  std::shared_ptr<JoinBuildSide> owned_;
  std::shared_ptr<const JoinBuildSide> side_;
};

}  // namespace fro

#endif  // FRO_EXEC_JOIN_BUILD_H_
