// Batch-native physical operators: scan, filter (in-place selection
// narrowing), project, union-with-padding, block nested-loop and hash
// join-likes in all four modes (inner, left outer, anti, semi), and the
// blocking generalized outerjoin. Join-like operators use one of two
// physical strategies: block nested loop (right input materialized at
// Open) or hash (build on the right input, probe from the left). The
// generalized outerjoin is inherently blocking (it needs the full set of
// matched S-projections) and is implemented as a materializing operator.
//
// Counter parity: every operator maintains ExecStats with the kernel
// accounting of relational/ops.h — reads per candidate tuple fetched,
// one probe per probe-side row, one predicate evaluation per candidate
// pair, anti/semi short-circuiting at the first match. The test suites
// (tests/exec_stats_test.cc, tests/batch_exec_test.cc) assert this
// against the materializing evaluator per operator.
//
// Join emission uses TupleBatch's peek-slot protocol: the candidate
// joined tuple is built directly in the output batch's next slot, the
// predicate is evaluated there, and the slot is committed only on a
// match — no per-tuple allocation once slots are warm.

#ifndef FRO_EXEC_BATCH_OPERATORS_H_
#define FRO_EXEC_BATCH_OPERATORS_H_

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "exec/batch_iterator.h"
#include "relational/index.h"
#include "relational/ops.h"
#include "relational/predicate.h"

namespace fro {

/// The mode of a join-like operator kind (kJoin, kOuterJoin, kAntijoin,
/// kSemijoin); any other kind is a programming error.
JoinMode JoinModeOf(OpKind kind);

/// Output scheme of a join-like operator: both operands' columns for
/// inner and left outer joins, the left operand's for anti/semijoins.
Scheme JoinOutScheme(const Scheme& left, const Scheme& right, JoinMode mode);

/// The conjuncts of `pred` an equi-key index probe on (left_keys[i],
/// right_keys[i]) does NOT discharge. A conjunct `l = r` whose column
/// pair is one of the key pairs is decided exactly by the probe's
/// normalized-key equality (SQL equality on non-null keys; null keys
/// never probe), so only the remaining conjuncts need per-candidate
/// re-evaluation. Returns nullptr when nothing remains. Shared by the
/// serial and morsel-parallel hash joins so their accounting agrees.
PredicatePtr ResidualAfterEquiKeys(const PredicatePtr& pred,
                                   const std::vector<AttrId>& left_keys,
                                   const std::vector<AttrId>& right_keys);

/// Full scan of a materialized relation (which must outlive the scan).
class BatchScanIterator : public BatchIterator {
 public:
  /// `columns` optionally shares a pre-built (or lazily-filled) columnar
  /// mirror of `relation` — Database::CachedColumns hands one out so the
  /// transpose is paid once per relation, not per plan build. When null
  /// the scan builds a private mirror.
  explicit BatchScanIterator(const Relation* relation,
                             std::shared_ptr<RelationColumns> columns = nullptr);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Scan"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  const Relation* relation_;
  /// Lazily-columnized mirror of relation_, attached to every view batch
  /// the scan emits so downstream kernels read whole-relation contiguous
  /// columns with zero per-batch transpose.
  std::shared_ptr<RelationColumns> columns_;
  size_t pos_ = 0;
};

/// sigma[pred](child): narrows the child's batch in place via the
/// selection vector — survivors are never copied.
class BatchFilterIterator : public BatchIterator {
 public:
  BatchFilterIterator(BatchIteratorPtr child, PredicatePtr pred);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Filter"; }
  std::vector<BatchIterator*> children() const override {
    return {child_.get()};
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr child_;
  PredicatePtr pred_;
  /// Column-kernel form of pred_, rebound each Open(): one
  /// column-at-a-time evaluation per batch instead of a tree walk per
  /// row (row-for-row equivalent to BoundPredicate).
  VectorPredicate vec_bound_;
  /// Reused per-batch buffers: column pointers by scheme position and
  /// the raw-indexed keep mask the kernel writes.
  std::vector<const ColumnVector*> col_ptrs_;
  std::vector<uint8_t> keep_mask_;
};

/// pi[cols](child), optionally duplicate-eliminating.
class BatchProjectIterator : public BatchIterator {
 public:
  BatchProjectIterator(BatchIteratorPtr child, std::vector<AttrId> cols,
                       bool dedup,
                       size_t batch_capacity = TupleBatch::kDefaultCapacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Project"; }
  std::vector<BatchIterator*> children() const override {
    return {child_.get()};
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr child_;
  std::vector<int> positions_;
  Scheme out_scheme_;
  bool dedup_;
  std::set<std::vector<Value>> seen_;
  std::vector<Value> key_scratch_;
  TupleBatch input_;
  size_t input_pos_ = 0;  // next live row of input_ to consume
};

/// Bag union with the padding convention; children stream sequentially.
class BatchUnionIterator : public BatchIterator {
 public:
  BatchUnionIterator(BatchIteratorPtr left, BatchIteratorPtr right,
                     size_t batch_capacity = TupleBatch::kDefaultCapacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Union"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr left_;
  BatchIteratorPtr right_;
  Scheme out_scheme_;
  std::vector<int> left_map_;   // out column -> left position or -1
  std::vector<int> right_map_;  // out column -> right position or -1
  bool on_right_ = false;
  TupleBatch input_;
  size_t input_pos_ = 0;
};

/// Block nested-loop join-like operator: right input materialized at
/// Open(), left tuples stream a batch at a time.
class BatchNestedLoopJoinIterator : public BatchIterator {
 public:
  BatchNestedLoopJoinIterator(
      BatchIteratorPtr left, BatchIteratorPtr right, PredicatePtr pred,
      JoinMode mode, size_t batch_capacity = TupleBatch::kDefaultCapacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "NestedLoopJoin"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr left_;
  BatchIteratorPtr right_;
  PredicatePtr pred_;
  BoundPredicate bound_;  // pred_ resolved against joined_scheme_
  JoinMode mode_;
  Scheme out_scheme_;
  Scheme joined_scheme_;
  std::vector<Tuple> right_rows_;
  TupleBatch input_;  // current left batch
  size_t input_pos_ = 0;
  bool left_active_ = false;
  size_t right_pos_ = 0;
  bool left_had_match_ = false;
};

/// Hash join-like operator: builds once on the right input at Open(),
/// probes a batch of left tuples at a time. The plan builder selects it
/// only when equi-keys exist; the full predicate is re-checked.
class BatchHashJoinIterator : public BatchIterator {
 public:
  BatchHashJoinIterator(BatchIteratorPtr left, BatchIteratorPtr right,
                        PredicatePtr pred, JoinMode mode,
                        std::vector<AttrId> left_keys,
                        std::vector<AttrId> right_keys,
                        size_t batch_capacity = TupleBatch::kDefaultCapacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "HashJoin"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr left_;
  BatchIteratorPtr right_;
  PredicatePtr pred_;
  /// pred_ minus the equi-key conjuncts the probe discharges; nullptr
  /// when the probe decides the whole predicate (pure equi-join).
  PredicatePtr residual_;
  BoundPredicate bound_;  // residual_ resolved against joined_scheme_
  JoinMode mode_;
  Scheme out_scheme_;
  Scheme joined_scheme_;
  std::vector<AttrId> left_keys_;
  std::vector<AttrId> right_keys_;
  Relation build_side_;
  /// The rows the probe table indexes: &build_side_ after a copying
  /// drain, or the scanned base relation itself when the build child
  /// streamed it as contiguous zero-copy views (a plain Leaf scan) — in
  /// that case no tuple is copied and no column is re-transposed; the
  /// shared mirror (owned by the scan child and the Database cache)
  /// backs columnar emission directly.
  const Relation* build_rel_ = nullptr;
  const RelationColumns* shared_build_cols_ = nullptr;
  /// Key-normalized copy of the build rows the index hashes over; kept
  /// as a member because HashIndex requires its relation to outlive it.
  /// Probe results are row indices valid for the build rows too (same
  /// row order), and output tuples come from the build rows so key
  /// values keep their original representation.
  Relation normalized_build_;
  std::unique_ptr<HashIndex> index_;
  /// Specialized probe table, engaged when the key is one column and
  /// every build-side key value is numeric. Keys are normalized the way
  /// NormalizeHashKeyValue does (int widened to double), stored in a
  /// flat power-of-two open-addressing array; rows sharing a key are
  /// chained in build order through fast_next_, so match sets and match
  /// order are identical to the HashIndex path. Probing it is one
  /// contiguous-array lookup — no per-row Value materialization, no
  /// generic key hashing, no node-based map traversal.
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
  uint32_t fast_match_ = 0;  // probe chain cursor (row + 1; 0 = done)
  bool use_fast_index_ = false;
  std::vector<int> left_key_positions_;
  std::vector<Value> probe_key_;
  /// Batched probe-key hashing (HashColumns) over the current input
  /// batch's key column, engaged when the fast index is live and the key
  /// column is dense numeric: probe_has_[raw] = 0 marks rows that never
  /// match (null key), otherwise probe_keys_/probe_hashes_ hold the
  /// normalized key and its hash for raw row `raw`.
  bool probe_dense_ = false;
  std::vector<double> probe_keys_;
  std::vector<uint64_t> probe_hashes_;
  std::vector<uint8_t> probe_has_;
  /// Per-batch probe resolution (dense path): match_head_[raw] is the
  /// 1-based chain head for raw row `raw` (0 = no match), filled at
  /// batch refresh by a two-pass probe sweep — a branch-free home-bucket
  /// pass over the whole batch, then a walk for the few rows flagged in
  /// probe_needs_ whose home bucket held a different key.
  std::vector<uint32_t> match_head_;
  std::vector<uint8_t> probe_needs_;
  /// Columnar emission, engaged when the probe discharges the whole
  /// predicate (residual_ == nullptr): output batches are built in
  /// owned-column mode from the probe side's columns and the build
  /// side's columnized mirror — no per-match Tuple assembly.
  bool columnar_emit_ = false;
  std::unique_ptr<RelationColumns> build_cols_;
  std::vector<const ColumnVector*> right_cols_;
  std::vector<const ColumnVector*> left_cols_;
  size_t left_off_ = 0;
  /// Gather-style emission (inner/left-outer columnar only): matches
  /// accumulate as (probe row, build row) index pairs and each output
  /// column is flushed in one AppendGather pass — tag dispatch once per
  /// column per batch instead of once per value. kNullIndex in the
  /// build list marks an outerjoin padding row. Pending pairs never
  /// outlive the input batch whose columns they index (flushed before
  /// the next batch loads).
  void FlushGather(TupleBatch* out);
  std::vector<uint32_t> emit_left_;
  std::vector<uint32_t> emit_right_;
  bool gather_batch_ok_ = false;
  TupleBatch input_;  // current left batch
  size_t input_pos_ = 0;
  bool left_active_ = false;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  bool left_had_match_ = false;
  const std::vector<size_t> no_matches_;
};

/// GOJ[subset, pred](left, right): blocking; materializes both inputs at
/// Open() and streams the kernel's result in batches.
class BatchGojIterator : public BatchIterator {
 public:
  BatchGojIterator(BatchIteratorPtr left, BatchIteratorPtr right,
                   PredicatePtr pred, AttrSet subset,
                   JoinAlgo algo = JoinAlgo::kAuto);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Goj"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr left_;
  BatchIteratorPtr right_;
  PredicatePtr pred_;
  AttrSet subset_;
  JoinAlgo algo_;
  Scheme out_scheme_;
  Relation result_;
  size_t pos_ = 0;
};

}  // namespace fro

#endif  // FRO_EXEC_BATCH_OPERATORS_H_
