#include "exec/join_build.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "relational/ops.h"

namespace fro {

namespace {

// The flat probe table hashes with HashNumericKey (relational/column.h),
// shared with the batched HashColumns primitive so dense-hashed probes
// land in the same buckets the build filled.

/// NormalizeHashKeyValue restricted to numeric values: the normalized
/// double, or nothing when the value is null or non-numeric.
std::optional<double> NumericKey(const Value& v) {
  if (v.kind() == Value::Kind::kInt) {
    return static_cast<double>(v.AsInt());
  }
  if (v.kind() == Value::Kind::kDouble) {
    // Collapse -0.0 to +0.0 so equal keys hash identically.
    const double d = v.AsDouble();
    return d == 0.0 ? 0.0 : d;
  }
  return std::nullopt;
}

}  // namespace

DrainedRows DrainBuildInput(BatchIterator* child, size_t batch_capacity) {
  // Zero-copy detection: a plain base-relation scan streams the whole of
  // one relation version as contiguous unselected views; when every
  // batch fits that pattern the result references the snapshot instead
  // of copying every tuple. The child is drained normally either way.
  DrainedRows out;
  std::vector<Tuple> owned;
  child->Open();
  TupleBatch scratch(batch_capacity);
  const RelationSnapshot* shared = nullptr;
  size_t shared_end = 0;
  bool zero_copy = true;
  // Copies the zero-copy prefix once the pattern breaks.
  auto backfill = [&] {
    if (shared == nullptr) return;
    const std::vector<Tuple>& rows = shared->relation().rows();
    owned.insert(owned.end(), rows.begin(),
                 rows.begin() + static_cast<std::ptrdiff_t>(shared_end));
  };
  while (child->NextBatch(&scratch)) {
    const size_t n = scratch.size();
    if (zero_copy) {
      size_t off = 0;
      const RelationSnapshot* src = scratch.view_source(&off);
      if (src != nullptr && !scratch.sel_active() &&
          (shared == nullptr ? off == 0 : (src == shared &&
                                           off == shared_end))) {
        shared = src;
        shared_end += n;
        continue;  // rows already live in the relation
      }
      zero_copy = false;
      backfill();
    }
    for (size_t i = 0; i < n; ++i) owned.push_back(scratch.selected(i));
  }
  child->Close();
  if (zero_copy && shared != nullptr) {
    if (shared_end == shared->relation().NumRows()) {
      out.snapshot = shared;
      return out;
    }
    backfill();  // contiguous views but not the whole relation
  }
  out.owned = Relation(child->scheme(), std::move(owned));
  return out;
}

JoinKeyIndex::JoinKeyIndex(const Relation& rows,
                           const std::vector<size_t>& key_positions,
                           const ColumnVector* key_column)
    : num_rows_(rows.NumRows()) {
  FRO_CHECK(!key_positions.empty());
  // Single numeric key: build the flat probe table instead of the
  // generic HashIndex. Null keys are skipped (they never equi-match); a
  // non-numeric key value anywhere on the build side falls back to the
  // generic path, which handles heterogeneous keys.
  if (key_positions.size() == 1 && num_rows_ < (size_t{1} << 30)) {
    const size_t build_pos = key_positions[0];
    const size_t n = num_rows_;
    size_t cap = 16;
    while (cap < n * 2) cap <<= 1;
    fast_buckets_.assign(cap, FastBucket{0.0, 0});
    fast_next_.assign(n, 0);
    fast_mask_ = cap - 1;
    size_t cap_bits = 0;
    while ((size_t{1} << cap_bits) < cap) ++cap_bits;
    fast_shift_ = 64 - cap_bits;
    // Bloom prefilter: 16 bits per bucket (cap * 2 bytes), addressed by
    // the hash's top 32 bits so it is independent of the bucket index.
    fast_bloom_.assign(cap * 2, 0);
    fast_bloom_mask_ = cap * 2 - 1;
    // Per-bucket chain tail during the build, so duplicate keys chain in
    // build order (match order must equal the HashIndex path's).
    std::vector<uint32_t> tails(cap, 0);
    flat_ = true;
    // Dense key pass when the key column is typed: one double/int load +
    // null byte per row, no Value indirection. A kGeneric column (mixed
    // int/double, strings) and a missing column fall back to the row
    // loop, which also demotes to the generic index on the first
    // non-numeric key.
    const bool dense_keys =
        key_column != nullptr &&
        (key_column->tag() == ColumnVector::Tag::kInt ||
         key_column->tag() == ColumnVector::Tag::kDouble ||
         key_column->tag() == ColumnVector::Tag::kEmpty);
    for (size_t i = 0; i < n; ++i) {
      double key;
      if (dense_keys) {
        if (key_column->is_null(i)) continue;  // kEmpty: all null
        key = NormalizedNumericKey(*key_column, i);
      } else {
        const Value& v = rows.row(i).value(build_pos);
        if (v.is_null()) continue;
        const std::optional<double> k = NumericKey(v);
        if (!k.has_value()) {
          flat_ = false;
          break;
        }
        key = *k;
      }
      const uint64_t h = HashNumericKey(key);
      const uint64_t bh = h >> 32;
      fast_bloom_[(bh >> 3) & fast_bloom_mask_] |=
          static_cast<uint8_t>(1u << (bh & 7));
      size_t b = h >> fast_shift_;
      while (fast_buckets_[b].head != 0 && !(fast_buckets_[b].key == key)) {
        b = (b + 1) & fast_mask_;
      }
      if (fast_buckets_[b].head == 0) {
        fast_buckets_[b] = FastBucket{key, static_cast<uint32_t>(i + 1)};
      } else {
        fast_next_[tails[b] - 1] = static_cast<uint32_t>(i + 1);
      }
      tails[b] = static_cast<uint32_t>(i + 1);
    }
  }
  if (!flat_) {
    fast_buckets_ = {};
    fast_next_ = {};
    fast_bloom_ = {};
    hash_ = std::make_unique<HashIndex>(rows, key_positions);
  }
}

size_t JoinKeyIndex::bytes() const {
  return fast_buckets_.capacity() * sizeof(FastBucket) +
         fast_next_.capacity() * sizeof(uint32_t) + fast_bloom_.capacity() +
         (hash_ != nullptr ? hash_->bytes() : 0);
}

JoinBuildSide::JoinBuildSide(Scheme scheme, std::vector<AttrId> keys)
    : scheme_(std::move(scheme)), keys_(std::move(keys)) {
  for (AttrId attr : keys_) FRO_CHECK_GE(scheme_.IndexOf(attr), 0);
}

void JoinBuildSide::Build(BatchIterator* child) {
  Release();
  rows_ = DrainBuildInput(child);
  row_data_ = rows_.rows().rows().data();
  num_rows_ = rows_.rows().NumRows();
  const std::vector<size_t> positions = scheme_.PositionsOf(keys_);
  if (rows_.snapshot == nullptr) {
    owned_columns_ = std::make_unique<RelationSnapshot>(&rows_.owned);
    columns_ = owned_columns_.get();
    if (!keys_.empty()) {
      index_ = std::make_shared<const JoinKeyIndex>(rows_.owned, positions,
                                                    /*key_column=*/nullptr);
    }
    return;
  }
  // A whole base relation: its key index is built once per relation
  // version and shared, like its column mirror.
  const RelationSnapshot& snapshot = *rows_.snapshot;
  columns_ = &snapshot;
  if (keys_.empty()) return;
  index_ = snapshot.Derived<JoinKeyIndex>("join-table", positions, [&] {
    const ColumnVector* key_column =
        positions.size() == 1 ? &snapshot.Column(positions[0]) : nullptr;
    return std::make_shared<const JoinKeyIndex>(snapshot.relation(),
                                                positions, key_column);
  });
}

void JoinBuildSide::Release() {
  index_.reset();
  // owned_columns_ points into rows_; drop it first.
  columns_ = nullptr;
  owned_columns_.reset();
  row_data_ = nullptr;
  num_rows_ = 0;
  rows_ = DrainedRows();
}

void JoinKeyIndex::ResolveHeads(const double* keys, const uint64_t* hashes,
                                const uint8_t* has, size_t n, uint32_t* heads,
                                uint8_t* needs) const {
  // Two passes. Pass 1 inspects only the home bucket, with no data-
  // dependent branch in the loop body: hit stores the chain head,
  // anything else stores 0, and the rare rows whose home bucket holds a
  // *different* key are flagged in `needs`. That body is a straight-line
  // load/compare/select chain over a dense index range, which the
  // compiler can if-convert and vectorize; an embedded probe walk (or any
  // branch on probed data) measured ~30x slower per row here. Pass 2
  // finishes the flagged rows — a few percent at our load factor, and
  // Bloom-gated so definite misses never walk — with the plain probe
  // loop.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hashes[i];
    const FastBucket& fb = fast_buckets_[h >> fast_shift_];
    const uint64_t bh = h >> 32;
    const uint32_t bit =
        (fast_bloom_[(bh >> 3) & fast_bloom_mask_] >> (bh & 7)) & 1u;
    const uint32_t row_has = has[i];
    const uint32_t occ = fb.head != 0;
    const uint32_t hit =
        row_has & occ & static_cast<uint32_t>(fb.key == keys[i]);
    heads[i] = fb.head * hit;
    needs[i] = static_cast<uint8_t>(row_has & bit & occ & (hit ^ 1u));
  }
  for (size_t i = 0; i < n; ++i) {
    if (needs[i]) {
      const double key = keys[i];
      size_t b = ((hashes[i] >> fast_shift_) + 1) & fast_mask_;
      uint32_t m = 0;
      while (fast_buckets_[b].head != 0) {
        if (fast_buckets_[b].key == key) {
          m = fast_buckets_[b].head;
          break;
        }
        b = (b + 1) & fast_mask_;
      }
      heads[i] = m;
    }
  }
}

uint32_t JoinKeyIndex::FlatHead(const Value& key) const {
  // A null probe key never matches; a non-numeric one cannot equal any of
  // the (all-numeric) build keys, so both yield no matches — exactly
  // what the generic probe would return.
  const std::optional<double> k = NumericKey(key);
  if (!k.has_value()) return 0;
  const uint64_t h = HashNumericKey(*k);
  const uint64_t bh = h >> 32;
  if (((fast_bloom_[(bh >> 3) & fast_bloom_mask_] >> (bh & 7)) & 1) == 0) {
    return 0;
  }
  for (size_t b = h >> fast_shift_; fast_buckets_[b].head != 0;
       b = (b + 1) & fast_mask_) {
    if (fast_buckets_[b].key == *k) return fast_buckets_[b].head;
  }
  return 0;
}

BuildMatches JoinBuildSide::Chain(uint32_t head) const {
  BuildMatches m;  // default: no candidates
  if (head == 0) return m;
  m.chain_next_ = index_->flat_next();
  m.chain_ = head;
  return m;
}

BuildMatches JoinBuildSide::Candidates(const Tuple& probe,
                                       const std::vector<int>& key_positions,
                                       std::vector<Value>* scratch) const {
  if (keys_.empty()) {
    BuildMatches all;
    all.end_ = NumRows();
    return all;
  }
  if (index_->flat()) {
    return Chain(index_->FlatHead(
        probe.value(static_cast<size_t>(key_positions[0]))));
  }
  static const std::vector<size_t> kNoMatches;
  BuildMatches m;
  m.list_ = &kNoMatches;
  scratch->clear();
  for (int pos : key_positions) {
    Value v = NormalizeHashKeyValue(probe.value(static_cast<size_t>(pos)));
    if (v.is_null()) return m;
    scratch->push_back(std::move(v));
  }
  m.list_ = &index_->hash().Probe(scratch->data(), scratch->size());
  return m;
}

JoinBuildInput::JoinBuildInput(BatchIteratorPtr child,
                               std::vector<AttrId> keys)
    : child_(std::move(child)),
      owned_(std::make_shared<JoinBuildSide>(child_->scheme(),
                                             std::move(keys))),
      side_(owned_) {}

JoinBuildInput::JoinBuildInput(std::shared_ptr<const JoinBuildSide> shared)
    : side_(std::move(shared)) {
  FRO_CHECK(side_ != nullptr);
}

void JoinBuildInput::Open() {
  if (owned_ != nullptr) owned_->Build(child_.get());
}

void JoinBuildInput::Close() {
  if (owned_ != nullptr) owned_->Release();
}

}  // namespace fro
