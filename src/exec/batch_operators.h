// Batch-native physical operators: scan, filter (in-place selection
// narrowing), project, union-with-padding, block nested-loop and hash
// join-likes in all four modes (inner, left outer, anti, semi), and the
// streaming generalized outerjoin. Join-like operators use one of two
// physical strategies: block nested loop (every build row a candidate)
// or hash (candidates from the build side's key index). All three join
// operators read the right input through a JoinBuildSide
// (exec/join_build.h): their own, built at Open(), or one a morsel
// exchange built once and shares across its workers.
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
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "exec/batch_iterator.h"
#include "exec/join_build.h"
#include "relational/ops.h"
#include "relational/predicate.h"

namespace fro {

/// The mode of a join-like operator kind (kJoin, kOuterJoin, kAntijoin,
/// kSemijoin); any other kind is a programming error.
JoinMode JoinModeOf(OpKind kind);

/// Output scheme of a join-like operator: both operands' columns for
/// inner and left outer joins, the left operand's for anti/semijoins.
Scheme JoinOutScheme(const Scheme& left, const Scheme& right, JoinMode mode);

/// Full scan of one relation version.
class BatchScanIterator : public BatchIterator {
 public:
  /// Scans a base relation's snapshot (Database::Snapshot): its column
  /// mirror and derived structures are shared with every other query
  /// over the same version.
  explicit BatchScanIterator(std::shared_ptr<const RelationSnapshot> snapshot);
  /// Scans `relation` (which must outlive the scan) through a private
  /// snapshot.
  explicit BatchScanIterator(const Relation* relation);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Scan"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  /// Attached to every view batch the scan emits, so downstream kernels
  /// read whole-relation contiguous columns with zero per-batch
  /// transpose.
  std::shared_ptr<const RelationSnapshot> snapshot_;
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

/// Block nested-loop join-like operator: the build side is every row of
/// the right input (materialized at Open(), or shared by an exchange);
/// left tuples stream a batch at a time.
class BatchNestedLoopJoinIterator : public BatchIterator {
 public:
  /// Serial plan: drains `right` at Open().
  BatchNestedLoopJoinIterator(
      BatchIteratorPtr left, BatchIteratorPtr right, PredicatePtr pred,
      JoinMode mode, size_t batch_capacity = TupleBatch::kDefaultCapacity);
  /// Any build input; an exchange's workers pass its shared side.
  BatchNestedLoopJoinIterator(BatchIteratorPtr left, JoinBuildInput build,
                              PredicatePtr pred, JoinMode mode,
                              size_t batch_capacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "NestedLoopJoin"; }
  std::vector<BatchIterator*> children() const override {
    return build_.Children(left_.get());
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr left_;
  JoinBuildInput build_;
  PredicatePtr pred_;
  BoundPredicate bound_;  // pred_ resolved against joined_scheme_
  JoinMode mode_;
  Scheme out_scheme_;
  Scheme joined_scheme_;
  TupleBatch input_;  // current left batch
  size_t input_pos_ = 0;
  bool left_active_ = false;
  size_t right_pos_ = 0;
  bool left_had_match_ = false;
};

/// Hash join-like operator: probes a batch of left tuples at a time
/// against a build side keyed on the equi-keys (built at Open() from the
/// right input, or shared by an exchange). The plan builder selects it
/// only when equi-keys exist; conjuncts beyond the keys are re-checked.
class BatchHashJoinIterator : public BatchIterator {
 public:
  /// Serial plan: drains and indexes `right` at Open().
  BatchHashJoinIterator(BatchIteratorPtr left, BatchIteratorPtr right,
                        PredicatePtr pred, JoinMode mode,
                        std::vector<AttrId> left_keys,
                        std::vector<AttrId> right_keys,
                        size_t batch_capacity = TupleBatch::kDefaultCapacity);
  /// Any build input keyed on the right keys; an exchange's workers
  /// pass its shared side.
  BatchHashJoinIterator(BatchIteratorPtr left, JoinBuildInput build,
                        PredicatePtr pred, JoinMode mode,
                        std::vector<AttrId> left_keys, size_t batch_capacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "HashJoin"; }
  std::vector<BatchIterator*> children() const override {
    return build_.Children(left_.get());
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  BatchIteratorPtr left_;
  JoinBuildInput build_;
  PredicatePtr pred_;
  /// pred_ minus the equi-key conjuncts the probe discharges; nullptr
  /// when the probe decides the whole predicate (pure equi-join).
  PredicatePtr residual_;
  BoundPredicate bound_;  // residual_ resolved against joined_scheme_
  JoinMode mode_;
  Scheme out_scheme_;
  Scheme joined_scheme_;
  std::vector<int> left_key_positions_;
  std::vector<Value> probe_key_;
  /// Candidate cursor of the probe row in progress (row-at-a-time path).
  BuildMatches matches_;
  /// Batched probe-key hashing (HashColumns) over the current input
  /// batch's key column, engaged when the build side's flat table is
  /// live and the key column is dense numeric: probe_has_[raw] = 0 marks
  /// rows that never match (null key), otherwise probe_keys_/
  /// probe_hashes_ hold the normalized key and its hash for raw row
  /// `raw`.
  bool probe_dense_ = false;
  std::vector<double> probe_keys_;
  std::vector<uint64_t> probe_hashes_;
  std::vector<uint8_t> probe_has_;
  /// Per-batch probe resolution (dense path): match_head_[raw] is the
  /// 1-based chain head for raw row `raw` (0 = no match), filled at
  /// batch refresh by JoinBuildSide::ResolveHeads.
  std::vector<uint32_t> match_head_;
  std::vector<uint8_t> probe_needs_;
  /// Columnar emission, engaged when the probe discharges the whole
  /// predicate (residual_ == nullptr): output batches are built in
  /// owned-column mode from the probe side's columns and the build
  /// side's columnized mirror — no per-match Tuple assembly.
  bool columnar_emit_ = false;
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
  bool left_had_match_ = false;
};

/// The eq. 14 padding state of one GOJ plan node, shared by everything
/// that streams it: pi[S] of the preserved input, each projection flagged
/// when some joined row carries it, unioned as each participant finishes
/// — one participant for a serial plan, one per worker behind an
/// exchange. The last participant to finish emits the pads.
class GojPadMerge {
 public:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const {
      return HashValues(key.data(), key.size());
    }
  };
  /// pi[S](L), each projection mapped to "also in pi[S](JN)".
  using Projections = std::unordered_map<std::vector<Value>, bool, KeyHash>;

  /// Arms the merge for `participants` streams; call while none runs.
  void Reset(int participants);

  /// Folds one participant's projections in (consuming them). Returns
  /// true for the last participant and hands it pi[S](L) - pi[S](JN) in
  /// `missing`, sorted: the pad order of the GeneralizedOuterJoin kernel.
  bool Finish(Projections* projections,
              std::vector<std::vector<Value>>* missing);

 private:
  std::mutex mu_;
  Projections merged_;
  int running_ = 0;
};

/// GOJ[subset, pred](left, right), paper eq. 14, streaming: joined
/// tuples stream out as the left input produces them, then the pads
/// (pi[S](L) - pi[S](JN)) x null, one per missing DISTINCT projection.
/// A serial plan is the pad merge's only participant, so its output
/// order equals the GeneralizedOuterJoin kernel's: joined rows first,
/// then pads in set order. Behind an exchange every worker streams its
/// morsels and the last one to finish pads.
///
/// Accounting mirrors the kernel's: one left_read per preserved row,
/// one probe per row when keyed, one right_read + one predicate_eval per
/// candidate, pads counted as ordinary emissions.
class BatchGojIterator : public BatchIterator {
 public:
  /// `left_keys` pair with the build side's keys (none: nested loop).
  /// A serial plan passes its right child and no `pads`, making the
  /// operator its pad merge's only participant; an exchange's workers
  /// pass its shared side and merge.
  BatchGojIterator(BatchIteratorPtr left, JoinBuildInput build,
                   std::shared_ptr<GojPadMerge> pads, PredicatePtr pred,
                   AttrSet subset, std::vector<AttrId> left_keys,
                   size_t batch_capacity);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Goj"; }
  std::vector<BatchIterator*> children() const override {
    return build_.Children(left_.get());
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  /// Records pi[S](lrow) and whether it joined.
  void RecordProjection(const Tuple& lrow, bool matched);
  /// Merges this participant's projections; the last one stages pads.
  void FinishStream();

  BatchIteratorPtr left_;
  JoinBuildInput build_;
  bool owns_pads_;
  std::shared_ptr<GojPadMerge> pads_;
  /// Residual beyond the equi-keys when keyed, else the whole predicate.
  PredicatePtr residual_;
  BoundPredicate bound_;  // residual_ resolved against out_scheme_
  Scheme out_scheme_;
  std::vector<int> subset_positions_;
  std::vector<int> left_key_positions_;
  std::vector<Value> probe_key_;
  BuildMatches matches_;
  TupleBatch input_;  // current left batch
  size_t input_pos_ = 0;
  bool left_active_ = false;
  bool left_had_match_ = false;
  /// pi[S] of this participant's left rows, flagged when joined.
  GojPadMerge::Projections projections_;
  std::vector<Value> projection_;  // scratch key for lookups
  bool streamed_ = false;  // left input exhausted, projections merged
  std::vector<Tuple> pad_rows_;  // staged by the last participant
  size_t pad_pos_ = 0;
};

}  // namespace fro

#endif  // FRO_EXEC_BATCH_OPERATORS_H_
