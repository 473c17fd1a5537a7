#include "wcoj/trie_index.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "relational/ops.h"

namespace fro {

TrieIndex::TrieIndex(const Relation& source,
                     std::vector<size_t> level_positions)
    : rows_(&source.rows()),
      arity_(source.scheme().size()),
      level_positions_(std::move(level_positions)) {
  for (size_t pos : level_positions_) {
    FRO_CHECK_LT(pos, arity_) << "trie level outside the source's scheme";
  }

  // Surviving rows: no null in any key column (nulls never equi-join).
  std::vector<uint32_t> order;
  order.reserve(source.NumRows());
  for (size_t i = 0; i < source.NumRows(); ++i) {
    bool has_null_key = false;
    for (size_t pos : level_positions_) {
      if (source.row(i).value(pos).is_null()) {
        has_null_key = true;
        break;
      }
    }
    if (!has_null_key) order.push_back(static_cast<uint32_t>(i));
  }

  // Normalized keys per level, gathered before sorting so the comparator
  // is a flat lookup.
  std::vector<std::vector<Value>> raw(level_positions_.size());
  for (size_t l = 0; l < level_positions_.size(); ++l) {
    raw[l].reserve(order.size());
    for (uint32_t r : order) {
      raw[l].push_back(
          NormalizeHashKeyValue(source.row(r).value(level_positions_[l])));
    }
  }
  std::vector<uint32_t> perm(order.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t l = 0; l < raw.size(); ++l) {
                       if (raw[l][a] < raw[l][b]) return true;
                       if (raw[l][b] < raw[l][a]) return false;
                     }
                     return false;
                   });

  order_.reserve(perm.size());
  keys_.assign(level_positions_.size(), {});
  for (auto& level : keys_) level.reserve(perm.size());
  for (uint32_t p : perm) {
    order_.push_back(order[p]);
    for (size_t l = 0; l < keys_.size(); ++l) {
      keys_[l].push_back(std::move(raw[l][p]));
    }
  }
}

size_t TrieIndex::bytes() const {
  size_t total = order_.capacity() * sizeof(uint32_t);
  for (const std::vector<Value>& level : keys_) {
    total += level.capacity() * sizeof(Value);
  }
  return total;
}

void TrieCursor::Reset() {
  levels_.clear();
  seeks_ = 0;
}

size_t TrieCursor::UpperBound(size_t level, size_t lo, size_t hi,
                              const Value& v) {
  ++seeks_;
  size_t n = hi - lo;
  while (n > 0) {
    const size_t half = n / 2;
    const size_t mid = lo + half;
    if (v < index_->key(level, mid)) {
      n = half;
    } else {
      lo = mid + 1;
      n -= half + 1;
    }
  }
  return lo;
}

size_t TrieCursor::LowerBound(size_t level, size_t lo, size_t hi,
                              const Value& v) {
  ++seeks_;
  size_t n = hi - lo;
  while (n > 0) {
    const size_t half = n / 2;
    const size_t mid = lo + half;
    if (index_->key(level, mid) < v) {
      lo = mid + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

bool TrieCursor::Open() {
  size_t lo, hi;
  if (levels_.empty()) {
    lo = 0;
    hi = index_->num_rows();
  } else {
    const Level& top = levels_.back();
    FRO_CHECK_LT(top.pos, top.hi) << "Open() past the end of a level";
    lo = top.pos;
    hi = top.run_end;
  }
  if (lo >= hi) return false;
  FRO_CHECK_LT(levels_.size(), index_->num_levels());
  Level level;
  level.lo = lo;
  level.hi = hi;
  level.pos = lo;
  level.run_end =
      UpperBound(levels_.size(), lo, hi, index_->key(levels_.size(), lo));
  levels_.push_back(level);
  return true;
}

void TrieCursor::Up() {
  FRO_CHECK(!levels_.empty());
  levels_.pop_back();
}

bool TrieCursor::AtEnd() const {
  FRO_CHECK(!levels_.empty());
  return levels_.back().pos >= levels_.back().hi;
}

const Value& TrieCursor::Key() const {
  const Level& top = levels_.back();
  FRO_CHECK_LT(top.pos, top.hi);
  return index_->key(levels_.size() - 1, top.pos);
}

void TrieCursor::Next() {
  Level& top = levels_.back();
  FRO_CHECK_LT(top.pos, top.hi);
  top.pos = top.run_end;
  if (top.pos < top.hi) {
    top.run_end = UpperBound(levels_.size() - 1, top.pos, top.hi,
                             index_->key(levels_.size() - 1, top.pos));
  }
}

void TrieCursor::SeekGeq(const Value& v) {
  Level& top = levels_.back();
  top.pos = LowerBound(levels_.size() - 1, top.pos, top.hi, v);
  if (top.pos < top.hi) {
    top.run_end = UpperBound(levels_.size() - 1, top.pos, top.hi,
                             index_->key(levels_.size() - 1, top.pos));
  }
}

std::pair<size_t, size_t> TrieCursor::CurrentRange() const {
  const Level& top = levels_.back();
  FRO_CHECK_LT(top.pos, top.hi);
  return {top.pos, top.run_end};
}

}  // namespace fro
