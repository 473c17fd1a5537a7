// Sorted multi-level column indexes ("tries") and cursors for the
// leapfrog triejoin (Veldhuizen). A TrieIndex over key attributes
// (a1, ..., ak) orders the relation's row ids lexicographically by
// the *normalized* key values (int widened to double, exactly like the
// hash-join key normalization in relational/ops.h), so structural value
// order and equality agree with SQL equality on keys. Rows with a null
// in any key column are excluded: a null never satisfies an equality
// predicate, so they cannot contribute to an equi-join result.
//
// Conceptually the sorted rows form a trie: level d groups rows by their
// first d key values, and every node is a contiguous row range. The
// cursor walks that trie with the classic open/up/next/seek interface,
// each movement a binary search within the current range.

#ifndef FRO_WCOJ_TRIE_INDEX_H_
#define FRO_WCOJ_TRIE_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "relational/relation.h"

namespace fro {

/// Immutable sorted index over one relation's rows. It keeps sorted row
/// ids into its source, not copies of the rows, and emitted tuples are
/// the source's ORIGINAL values (normalization is confined to key
/// comparison), so 1 and 1.0 join but are output unchanged.
class TrieIndex {
 public:
  /// Indexes `source` (a base relation's snapshot rows or an operator's
  /// drained rows), whose row storage must outlive the index unchanged.
  /// `level_positions` must be distinct positions of the source's
  /// scheme; it may be empty, in which case the index is a single flat
  /// range.
  TrieIndex(const Relation& source, std::vector<size_t> level_positions);

  size_t num_rows() const { return order_.size(); }
  size_t num_levels() const { return level_positions_.size(); }
  /// Columns of every indexed row.
  size_t arity() const { return arity_; }

  /// Sorted row `i` with original values.
  const Tuple& row(size_t i) const { return (*rows_)[order_[i]]; }

  /// Normalized key of sorted row `i` at `level`.
  const Value& key(size_t level, size_t i) const { return keys_[level][i]; }

  /// Rows of the source, null keys included.
  size_t source_rows() const { return rows_->size(); }

  /// Approximate heap footprint (row ids and keys; the rows are the
  /// source's).
  size_t bytes() const;

 private:
  /// The source's row storage, which its renamings share; the index
  /// reads it by position only.
  const std::vector<Tuple>* rows_;
  size_t arity_;
  std::vector<size_t> level_positions_;  // level order
  std::vector<uint32_t> order_;      // source row id per sorted row
  std::vector<std::vector<Value>> keys_;  // [level][sorted row] normalized
};

/// Cursor over a TrieIndex: a stack of nested row ranges, one per open
/// level. Depth -1 (after Reset) is the root covering every row.
///
///   Open()     descend into the current key's rows, positioned at the
///              first distinct key of the next level
///   Up()       ascend one level
///   Next()     advance to the next distinct key at this level
///   SeekGeq(v) least key >= v at this level (leapfrog's seek)
///   AtEnd()    no more keys at this level
///
/// Every movement performs O(log n) comparisons; `seeks()` counts the
/// binary-search operations (leapfrog seeks and steps alike) for the
/// operator's `probes` accounting.
class TrieCursor {
 public:
  explicit TrieCursor(const TrieIndex* index) : index_(index) { Reset(); }

  void Reset();

  int depth() const { return static_cast<int>(levels_.size()) - 1; }

  /// Descends one level; returns false (and stays) if the range under
  /// the current position is empty (only possible on an empty index).
  bool Open();
  void Up();

  bool AtEnd() const;
  /// Current distinct key; requires !AtEnd().
  const Value& Key() const;
  void Next();
  void SeekGeq(const Value& v);

  /// The contiguous row range matching the current key at the current
  /// depth; requires !AtEnd().
  std::pair<size_t, size_t> CurrentRange() const;

  uint64_t seeks() const { return seeks_; }
  void ResetSeeks() { seeks_ = 0; }

 private:
  struct Level {
    size_t lo, hi;    // rows matching the parent prefix
    size_t pos;       // start of the current key's run
    size_t run_end;   // end of the current key's run
  };

  size_t UpperBound(size_t level, size_t lo, size_t hi, const Value& v);
  size_t LowerBound(size_t level, size_t lo, size_t hi, const Value& v);

  const TrieIndex* index_;
  std::vector<Level> levels_;
  uint64_t seeks_ = 0;
};

}  // namespace fro

#endif  // FRO_WCOJ_TRIE_INDEX_H_
