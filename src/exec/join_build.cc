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

JoinBuildSide::JoinBuildSide(Scheme scheme, std::vector<AttrId> keys)
    : scheme_(std::move(scheme)), keys_(std::move(keys)) {
  for (AttrId attr : keys_) FRO_CHECK_GE(scheme_.IndexOf(attr), 0);
}

void JoinBuildSide::Build(BatchIterator* child) {
  Release();
  // Zero-copy detection: a plain base-relation scan streams the whole of
  // one columnized relation as contiguous unselected views; when every
  // batch fits that pattern the build references the relation (and its
  // shared columnar mirror) instead of copying every tuple. The child is
  // still drained normally so its ExecStats match the evaluator's.
  Relation raw(scheme_);
  child->Open();
  TupleBatch scratch;
  const RelationColumns* shared = nullptr;
  size_t shared_end = 0;
  bool zero_copy = true;
  while (child->NextBatch(&scratch)) {
    const size_t n = scratch.size();
    if (zero_copy) {
      size_t off = 0;
      const RelationColumns* src = scratch.view_source(&off);
      if (src != nullptr && !scratch.sel_active() &&
          (shared == nullptr ? off == 0 : (src == shared &&
                                           off == shared_end))) {
        shared = src;
        shared_end += n;
        continue;  // rows already live in the relation
      }
      // Pattern broke: backfill the prefix we skipped, then copy.
      zero_copy = false;
      for (size_t i = 0; i < shared_end; ++i) {
        raw.AddRow(shared->relation().row(i));
      }
    }
    for (size_t i = 0; i < n; ++i) raw.AddRow(scratch.selected(i));
  }
  child->Close();
  if (zero_copy && shared != nullptr &&
      shared_end == shared->relation().NumRows()) {
    rows_ = &shared->relation();
    columns_ = shared;
  } else {
    if (zero_copy && shared != nullptr) {
      // Contiguous views but not the whole relation (e.g. a morsel
      // range): materialize the drained prefix after all.
      for (size_t i = 0; i < shared_end; ++i) {
        raw.AddRow(shared->relation().row(i));
      }
    }
    owned_ = std::move(raw);
    rows_ = &owned_;
    owned_columns_ = std::make_unique<RelationColumns>(&owned_);
    columns_ = owned_columns_.get();
  }
  if (keys_.empty()) return;
  // Single numeric key: build the flat probe table instead of the
  // generic HashIndex. Null keys are skipped (they never equi-match); a
  // non-numeric key value anywhere on the build side falls back to the
  // generic path, which handles heterogeneous keys.
  if (keys_.size() == 1 && rows_->NumRows() < (size_t{1} << 30)) {
    const int build_pos = scheme_.IndexOf(keys_[0]);
    const size_t n = rows_->NumRows();
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
    use_fast_index_ = true;
    // Dense key pass when the shared mirror holds the key column typed:
    // one double/int load + null byte per row, no Value indirection. A
    // kGeneric column (mixed int/double, strings) and the copied-drain
    // path fall back to the row loop, which also demotes to the generic
    // index on the first non-numeric key.
    const ColumnVector* kc =
        owned_columns_ == nullptr
            ? &columns_->Column(static_cast<size_t>(build_pos))
            : nullptr;
    const bool dense_keys =
        kc != nullptr && (kc->tag() == ColumnVector::Tag::kInt ||
                          kc->tag() == ColumnVector::Tag::kDouble ||
                          kc->tag() == ColumnVector::Tag::kEmpty);
    for (size_t i = 0; i < n; ++i) {
      double key;
      if (dense_keys) {
        if (kc->is_null(i)) continue;  // kEmpty columns are all null
        key = NormalizedNumericKey(*kc, i);
      } else {
        const Value& v = rows_->row(i).value(static_cast<size_t>(build_pos));
        if (v.is_null()) continue;
        const std::optional<double> k = NumericKey(v);
        if (!k.has_value()) {
          use_fast_index_ = false;
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
  if (!use_fast_index_) {
    fast_buckets_.clear();
    fast_next_.clear();
    fast_bloom_.clear();
    normalized_ = NormalizeOnKeyColumns(*rows_, keys_);
    index_ = std::make_unique<HashIndex>(normalized_, keys_);
  }
}

void JoinBuildSide::Release() {
  index_.reset();
  normalized_ = Relation();
  fast_buckets_.clear();
  fast_next_.clear();
  fast_bloom_.clear();
  use_fast_index_ = false;
  // owned_columns_ points into owned_; drop it first.
  columns_ = nullptr;
  owned_columns_.reset();
  owned_ = Relation();
  rows_ = &owned_;
}

void JoinBuildSide::ResolveHeads(const double* keys, const uint64_t* hashes,
                                 const uint8_t* has, size_t n,
                                 uint32_t* heads, uint8_t* needs) const {
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

uint32_t JoinBuildSide::FlatHead(const Value& key) const {
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
  m.chain_next_ = fast_next_.data();
  m.chain_ = head;
  return m;
}

BuildMatches JoinBuildSide::Candidates(const Tuple& probe,
                                       const std::vector<int>& key_positions,
                                       std::vector<Value>* scratch) const {
  if (keys_.empty()) {
    BuildMatches all;
    all.end_ = rows_->NumRows();
    return all;
  }
  if (use_fast_index_) {
    return Chain(
        FlatHead(probe.value(static_cast<size_t>(key_positions[0]))));
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
  m.list_ = &index_->Probe(scratch->data(), scratch->size());
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
