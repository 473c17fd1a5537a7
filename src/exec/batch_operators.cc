#include "exec/batch_operators.h"

#include <algorithm>

#include "common/check.h"
#include "exec/morsel.h"
#include "relational/ops.h"

namespace fro {

Result<Relation> DrainChecked(BatchIterator* iterator, ExecControl* control) {
  std::vector<Tuple> rows;
  iterator->Open();
  TupleBatch batch;
  while (iterator->NextBatch(&batch)) {
    const size_t n = batch.size();
    for (size_t i = 0; i < n; ++i) rows.push_back(batch.selected(i));
  }
  iterator->Close();
  if (control != nullptr) {
    // One authoritative deadline check at completion: the per-batch
    // checks may never have read the clock on a short pipeline, but an
    // armed deadline that has passed must surface regardless of query
    // size.
    control->ShouldStopBatch();
    FRO_RETURN_IF_ERROR(control->status());
  }
  return Relation(iterator->scheme(), std::move(rows));
}

Relation DrainBatches(BatchIterator* iterator) {
  // Without a control nothing can stop the drain, so it cannot fail.
  return std::move(DrainChecked(iterator, nullptr)).value();
}

ExecStats CollectPipelineStats(BatchIterator* root) {
  ExecStats totals;
  root->Visit([&](BatchIterator* node, int) {
    if (node->children().empty()) {
      // Scans: their emissions are already charged as reads to their
      // consumers. An exchange contributes its worker pipelines' totals
      // plus the shared build subtrees', each counted once.
      if (auto* exchange = dynamic_cast<BatchExchangeIterator*>(node)) {
        totals += exchange->CollectWorkerStats();
      }
      return;
    }
    totals += node->stats();
  });
  return totals;
}

// --- Scan ----------------------------------------------------------------

BatchScanIterator::BatchScanIterator(
    std::shared_ptr<const RelationSnapshot> snapshot)
    : snapshot_(std::move(snapshot)) {
  FRO_CHECK(snapshot_ != nullptr);
}

BatchScanIterator::BatchScanIterator(const Relation* relation)
    : BatchScanIterator(std::make_shared<const RelationSnapshot>(relation)) {}

void BatchScanIterator::OpenImpl() { pos_ = 0; }

bool BatchScanIterator::NextBatchImpl(TupleBatch* out) {
  const Relation& relation = snapshot_->relation();
  const size_t total = relation.NumRows();
  if (pos_ >= total) return false;
  // Zero-copy: the batch views a capacity-sized window of the relation's
  // contiguous row storage, with the snapshot attached so downstream
  // kernels get contiguous columns for free. Consumers read in place;
  // the scan holds the snapshot, so the rows outlive the pipeline.
  const size_t n = std::min(out->capacity(), total - pos_);
  out->SetView(&relation.rows()[pos_], n, snapshot_.get(), pos_);
  pos_ += n;
  return true;
}

void BatchScanIterator::CloseImpl() {}

const Scheme& BatchScanIterator::scheme() const {
  return snapshot_->relation().scheme();
}

// --- Filter ----------------------------------------------------------------

BatchFilterIterator::BatchFilterIterator(BatchIteratorPtr child,
                                         PredicatePtr pred)
    : child_(std::move(child)), pred_(std::move(pred)) {
  FRO_CHECK(pred_ != nullptr);
}

void BatchFilterIterator::OpenImpl() {
  child_->Open();
  vec_bound_.Bind(pred_, child_->scheme());
  col_ptrs_.assign(child_->scheme().size(), nullptr);
}

bool BatchFilterIterator::NextBatchImpl(TupleBatch* out) {
  // Narrow the child's batch in place; loop past fully-filtered batches so
  // a true return always carries at least one live row. Counters update
  // once per batch (one read + one eval per live input row), keeping the
  // kernel free of bookkeeping. The kernel evaluates all raw rows
  // densely — masks of already-deselected rows are computed but never
  // consulted, which is cheaper than gathering survivors first.
  while (child_->NextBatch(out)) {
    const uint64_t n = out->size();
    mutable_stats().left_reads += n;
    mutable_stats().predicate_evals += n;
    const size_t raw_n = out->NumRows();
    if (raw_n > 0) {
      size_t offset = 0;
      for (int pos : vec_bound_.column_positions()) {
        col_ptrs_[static_cast<size_t>(pos)] =
            out->Column(static_cast<size_t>(pos), &offset);
      }
      keep_mask_.resize(raw_n);
      vec_bound_.Eval(col_ptrs_.data(), offset, raw_n, keep_mask_.data(),
                      nullptr);
      out->NarrowToMask(keep_mask_.data());
    }
    if (!out->empty()) return true;
  }
  return false;
}

void BatchFilterIterator::CloseImpl() { child_->Close(); }

const Scheme& BatchFilterIterator::scheme() const { return child_->scheme(); }

// --- Project ---------------------------------------------------------------

BatchProjectIterator::BatchProjectIterator(BatchIteratorPtr child,
                                           std::vector<AttrId> cols,
                                           bool dedup, size_t batch_capacity)
    : child_(std::move(child)),
      out_scheme_(Scheme(cols)),
      dedup_(dedup),
      input_(batch_capacity) {
  for (AttrId attr : cols) {
    int pos = child_->scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0) << "projection column not in child scheme";
    positions_.push_back(pos);
  }
}

void BatchProjectIterator::OpenImpl() {
  child_->Open();
  seen_.clear();
  input_.Clear();
  input_pos_ = 0;
}

bool BatchProjectIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    if (input_pos_ >= input_.size()) {
      if (!child_->NextBatch(&input_)) return !out->empty();
      input_pos_ = 0;
      continue;
    }
    while (input_pos_ < input_.size()) {
      if (out->full()) return true;
      const Tuple& row = input_.selected(input_pos_++);
      ++mutable_stats().left_reads;
      if (dedup_) {
        key_scratch_.resize(positions_.size());
        for (size_t i = 0; i < positions_.size(); ++i) {
          key_scratch_[i] = row.value(static_cast<size_t>(positions_[i]));
        }
        if (!seen_.insert(key_scratch_).second) continue;
      }
      out->AppendSlot()->AssignMapped(row, positions_);
    }
  }
}

void BatchProjectIterator::CloseImpl() {
  child_->Close();
  seen_.clear();
}

const Scheme& BatchProjectIterator::scheme() const { return out_scheme_; }

// --- Union -----------------------------------------------------------------

BatchUnionIterator::BatchUnionIterator(BatchIteratorPtr left,
                                       BatchIteratorPtr right,
                                       size_t batch_capacity)
    : left_(std::move(left)),
      right_(std::move(right)),
      input_(batch_capacity) {
  AttrSet all =
      left_->scheme().ToAttrSet().Union(right_->scheme().ToAttrSet());
  out_scheme_ = Scheme(all.ids());
  for (size_t c = 0; c < out_scheme_.size(); ++c) {
    left_map_.push_back(left_->scheme().IndexOf(out_scheme_.col(c)));
    right_map_.push_back(right_->scheme().IndexOf(out_scheme_.col(c)));
  }
}

void BatchUnionIterator::OpenImpl() {
  left_->Open();
  right_->Open();
  on_right_ = false;
  input_.Clear();
  input_pos_ = 0;
}

bool BatchUnionIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    if (input_pos_ >= input_.size()) {
      BatchIterator* side = on_right_ ? right_.get() : left_.get();
      if (!side->NextBatch(&input_)) {
        if (!on_right_) {
          on_right_ = true;
          input_.Clear();
          input_pos_ = 0;
          continue;
        }
        return !out->empty();
      }
      input_pos_ = 0;
      continue;
    }
    const std::vector<int>& map = on_right_ ? right_map_ : left_map_;
    while (input_pos_ < input_.size()) {
      if (out->full()) return true;
      const Tuple& row = input_.selected(input_pos_++);
      if (on_right_) {
        ++mutable_stats().right_reads;
      } else {
        ++mutable_stats().left_reads;
      }
      out->AppendSlot()->AssignMapped(row, map);
    }
  }
}

void BatchUnionIterator::CloseImpl() {
  left_->Close();
  right_->Close();
}

const Scheme& BatchUnionIterator::scheme() const { return out_scheme_; }

// --- Nested-loop join ------------------------------------------------------

JoinMode JoinModeOf(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
      return JoinMode::kInner;
    case OpKind::kOuterJoin:
      return JoinMode::kLeftOuter;
    case OpKind::kAntijoin:
      return JoinMode::kAnti;
    case OpKind::kSemijoin:
      return JoinMode::kSemi;
    default:
      FRO_CHECK(false) << "not a join-like operator";
  }
  return JoinMode::kInner;
}

Scheme JoinOutScheme(const Scheme& left, const Scheme& right, JoinMode mode) {
  switch (mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter:
      return left.Concat(right);
    case JoinMode::kAnti:
    case JoinMode::kSemi:
      return left;
  }
  return left;
}

BatchNestedLoopJoinIterator::BatchNestedLoopJoinIterator(
    BatchIteratorPtr left, BatchIteratorPtr right, PredicatePtr pred,
    JoinMode mode, size_t batch_capacity)
    : BatchNestedLoopJoinIterator(std::move(left),
                                  JoinBuildInput(std::move(right), {}),
                                  std::move(pred), mode, batch_capacity) {}

BatchNestedLoopJoinIterator::BatchNestedLoopJoinIterator(
    BatchIteratorPtr left, JoinBuildInput build, PredicatePtr pred,
    JoinMode mode, size_t batch_capacity)
    : left_(std::move(left)),
      build_(std::move(build)),
      pred_(std::move(pred)),
      mode_(mode),
      out_scheme_(JoinOutScheme(left_->scheme(), build_.scheme(), mode)),
      joined_scheme_(left_->scheme().Concat(build_.scheme())),
      input_(batch_capacity) {
  FRO_CHECK(build_.side().keys().empty());
}

void BatchNestedLoopJoinIterator::OpenImpl() {
  left_->Open();
  if (pred_ != nullptr) bound_.Bind(pred_, joined_scheme_);
  // Materialize the right input once (block nested loop).
  build_.Open();
  input_.Clear();
  input_pos_ = 0;
  left_active_ = false;
}

bool BatchNestedLoopJoinIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    if (!left_active_) {
      if (input_pos_ >= input_.size()) {
        if (!left_->NextBatch(&input_)) return !out->empty();
        input_pos_ = 0;
        continue;
      }
      ++mutable_stats().left_reads;
      right_pos_ = 0;
      left_had_match_ = false;
      left_active_ = true;
    }
    const Tuple& lrow = input_.selected(input_pos_);
    const JoinBuildSide& build = build_.side();
    bool dropped_left = false;
    while (right_pos_ < build.NumRows()) {
      if (out->full()) return true;
      const Tuple& rrow = build.row(right_pos_++);
      ++mutable_stats().right_reads;
      // Build the candidate directly in the output slot; commit only on a
      // predicate match.
      Tuple* slot = out->PeekSlot();
      slot->AssignConcat(lrow, rrow);
      ++mutable_stats().predicate_evals;
      if (pred_ != nullptr && !IsTrue(bound_.Eval(*slot))) {
        continue;
      }
      left_had_match_ = true;
      switch (mode_) {
        case JoinMode::kInner:
        case JoinMode::kLeftOuter:
          out->CommitSlot();
          break;
        case JoinMode::kSemi:
          slot->AssignFrom(lrow);
          out->CommitSlot();
          dropped_left = true;
          break;
        case JoinMode::kAnti:
          dropped_left = true;
          break;
      }
      if (dropped_left) break;
    }
    if (!dropped_left) {
      // Right side exhausted for this left tuple.
      const bool unmatched = !left_had_match_;
      if (mode_ == JoinMode::kLeftOuter && unmatched) {
        if (out->full()) return true;
        out->AppendSlot()->AssignConcatNulls(lrow, build.scheme().size());
      } else if (mode_ == JoinMode::kAnti && unmatched) {
        if (out->full()) return true;
        out->AppendSlot()->AssignFrom(lrow);
      }
    }
    left_active_ = false;
    ++input_pos_;
  }
}

void BatchNestedLoopJoinIterator::CloseImpl() {
  left_->Close();
  build_.Close();
  left_active_ = false;
}

const Scheme& BatchNestedLoopJoinIterator::scheme() const {
  return out_scheme_;
}

// --- Hash join ---------------------------------------------------------

namespace {

/// The conjuncts of `pred` an equi-key index probe on (left_keys[i],
/// right_keys[i]) does NOT discharge. A conjunct `l = r` whose column
/// pair is one of the key pairs is decided exactly by the probe's
/// normalized-key equality (SQL equality on non-null keys; null keys
/// never probe), so only the remaining conjuncts need per-candidate
/// re-evaluation. Returns nullptr when nothing remains.
PredicatePtr ResidualAfterEquiKeys(const PredicatePtr& pred,
                                   const std::vector<AttrId>& left_keys,
                                   const std::vector<AttrId>& right_keys) {
  if (pred == nullptr) return nullptr;
  std::vector<PredicatePtr> residual;
  for (const PredicatePtr& conjunct : pred->Conjuncts(pred)) {
    bool covered = false;
    if (conjunct->kind() == Predicate::Kind::kCmp &&
        conjunct->cmp_op() == CmpOp::kEq && conjunct->lhs().is_column() &&
        conjunct->rhs().is_column()) {
      const AttrId l = conjunct->lhs().attr();
      const AttrId r = conjunct->rhs().attr();
      for (size_t i = 0; i < left_keys.size() && !covered; ++i) {
        covered = (l == left_keys[i] && r == right_keys[i]) ||
                  (l == right_keys[i] && r == left_keys[i]);
      }
    }
    if (!covered) residual.push_back(conjunct);
  }
  if (residual.empty()) return nullptr;
  return Predicate::And(std::move(residual));
}

/// Scheme positions of `attrs`, each of which must be in `scheme`.
std::vector<int> PositionsIn(const Scheme& scheme,
                             const std::vector<AttrId>& attrs) {
  std::vector<int> positions;
  for (AttrId attr : attrs) {
    const int pos = scheme.IndexOf(attr);
    FRO_CHECK_GE(pos, 0);
    positions.push_back(pos);
  }
  return positions;
}

}  // namespace

BatchHashJoinIterator::BatchHashJoinIterator(
    BatchIteratorPtr left, BatchIteratorPtr right, PredicatePtr pred,
    JoinMode mode, std::vector<AttrId> left_keys,
    std::vector<AttrId> right_keys, size_t batch_capacity)
    : BatchHashJoinIterator(std::move(left),
                            JoinBuildInput(std::move(right),
                                           std::move(right_keys)),
                            std::move(pred), mode, std::move(left_keys),
                            batch_capacity) {}

BatchHashJoinIterator::BatchHashJoinIterator(BatchIteratorPtr left,
                                             JoinBuildInput build,
                                             PredicatePtr pred, JoinMode mode,
                                             std::vector<AttrId> left_keys,
                                             size_t batch_capacity)
    : left_(std::move(left)),
      build_(std::move(build)),
      pred_(std::move(pred)),
      mode_(mode),
      out_scheme_(JoinOutScheme(left_->scheme(), build_.scheme(), mode)),
      joined_scheme_(left_->scheme().Concat(build_.scheme())),
      left_key_positions_(PositionsIn(left_->scheme(), left_keys)),
      input_(batch_capacity) {
  FRO_CHECK(!left_keys.empty());
  FRO_CHECK_EQ(left_keys.size(), build_.side().keys().size());
  residual_ = ResidualAfterEquiKeys(pred_, left_keys, build_.side().keys());
}

void BatchHashJoinIterator::OpenImpl() {
  left_->Open();
  if (residual_ != nullptr) bound_.Bind(residual_, joined_scheme_);
  // Build phase: materialize and index the right input, once per Open()
  // (a shared side was built by the exchange before the workers opened).
  build_.Open();
  const JoinBuildSide& build = build_.side();
  // Columnar emission whenever the probe discharges the whole predicate:
  // matches are appended column-by-column from the probe side's columns
  // and the build side's columnized mirror, instead of assembling a
  // joined Tuple per match.
  columnar_emit_ = residual_ == nullptr;
  right_cols_.clear();
  if (columnar_emit_ &&
      (mode_ == JoinMode::kInner || mode_ == JoinMode::kLeftOuter)) {
    for (size_t c = 0; c < build.scheme().size(); ++c) {
      right_cols_.push_back(&build.columns().Column(c));
    }
  }
  left_cols_.assign(left_->scheme().size(), nullptr);
  probe_dense_ = false;
  emit_left_.clear();
  emit_right_.clear();
  gather_batch_ok_ = false;
  input_.Clear();
  input_pos_ = 0;
  left_active_ = false;
  matches_ = BuildMatches();
}

void BatchHashJoinIterator::FlushGather(TupleBatch* out) {
  const size_t n = emit_left_.size();
  if (n == 0) return;
  const size_t left_arity = left_cols_.size();
  for (size_t c = 0; c < left_arity; ++c) {
    out->mutable_column(c)->AppendGather(*left_cols_[c], emit_left_.data(),
                                         n);
  }
  for (size_t c = 0; c < right_cols_.size(); ++c) {
    out->mutable_column(left_arity + c)
        ->AppendGather(*right_cols_[c], emit_right_.data(), n);
  }
  out->CommitColumnRows(n);
  emit_left_.clear();
  emit_right_.clear();
}

bool BatchHashJoinIterator::NextBatchImpl(TupleBatch* out) {
  // NextBatch() hands us a cleared batch; columnar emission claims it
  // before any row lands in it.
  if (columnar_emit_) out->BeginColumns(out_scheme_.size());
  const size_t left_arity = left_cols_.size();
  // Gather-style emission: inner/left-outer matches accumulate as index
  // pairs and flush per column (FlushGather) instead of appending value
  // by value. Semi/anti emit too few values to be worth staging.
  const bool gather = columnar_emit_ && (mode_ == JoinMode::kInner ||
                                         mode_ == JoinMode::kLeftOuter);
  const JoinBuildSide& build = build_.side();
  for (;;) {
    if (!left_active_) {
      if (input_pos_ >= input_.size()) {
        if (gather && !emit_left_.empty()) {
          // Pending pairs index the current input batch's columns; flush
          // before those pointers are refreshed by the next batch.
          FlushGather(out);
          return true;
        }
        if (!left_->NextBatch(&input_)) return !out->empty();
        input_pos_ = 0;
        // Per-batch probe preparation. Fast-index probes hash the whole
        // key column densely in one HashColumns pass (falling back to
        // the per-row path when the column is generic); columnar
        // emission refreshes the input's column pointers.
        const size_t raw_n = input_.NumRows();
        probe_dense_ = false;
        if (build.flat() && raw_n > 0) {
          size_t koff = 0;
          const ColumnVector* kc =
              input_.Column(static_cast<size_t>(left_key_positions_[0]),
                            &koff);
          probe_keys_.resize(raw_n);
          probe_hashes_.resize(raw_n);
          probe_has_.resize(raw_n);
          probe_dense_ =
              HashColumns({kc}, koff, raw_n, probe_keys_.data(),
                          probe_hashes_.data(), probe_has_.data());
          if (probe_dense_) {
            // Resolve every row's chain head up front. Dead (unselected)
            // rows are resolved too: the dense pass is cheaper than
            // gathering selection indices, and their entries are simply
            // never read.
            match_head_.resize(raw_n);
            probe_needs_.resize(raw_n);
            build.ResolveHeads(probe_keys_.data(), probe_hashes_.data(),
                               probe_has_.data(), raw_n, match_head_.data(),
                               probe_needs_.data());
          }
        }
        if (columnar_emit_ && raw_n > 0) {
          for (size_t c = 0; c < left_arity; ++c) {
            left_cols_[c] = input_.Column(c, &left_off_);
          }
          // Gather indices are 32-bit with kNullIndex reserved; a batch
          // whose absolute row indices would not fit falls back to
          // value-at-a-time emission.
          gather_batch_ok_ =
              left_off_ + raw_n < ColumnVector::kNullIndex;
        }
        continue;
      }
      if (probe_dense_ && gather && gather_batch_ok_) {
        // Dense probe loop: the whole input batch in one pass — probe,
        // chain walk, and gather-list emission per row with the counters
        // accumulated locally — instead of a trip through the resumable
        // state machine per row. When the output batch fills mid-row the
        // loop suspends into that state machine (left_active_ /
        // matches_), which resumes the chain exactly where the generic
        // path would.
        const size_t cap = out->capacity();
        const size_t base = out->NumRows();
        const size_t live = input_.size();
        const bool pad = mode_ == JoinMode::kLeftOuter;
        const uint32_t* chain_next = build.flat_next();
        uint64_t rows_probed = 0;
        uint64_t candidates = 0;
        bool suspended = false;
        while (input_pos_ < live && !suspended) {
          const size_t raw = input_.sel_index(input_pos_);
          ++rows_probed;
          uint32_t m = match_head_[raw];
          bool had = false;
          for (;;) {
            if (m == 0) {
              if (!had && pad) {
                if (base + emit_left_.size() >= cap) {
                  // Suspend before the pad: the generic loop re-enters
                  // this row with an exhausted chain and pads it.
                  left_active_ = true;
                  left_had_match_ = false;
                  matches_ = BuildMatches();
                  suspended = true;
                  break;
                }
                emit_left_.push_back(
                    static_cast<uint32_t>(left_off_ + raw));
                emit_right_.push_back(ColumnVector::kNullIndex);
              }
              ++input_pos_;
              break;
            }
            if (base + emit_left_.size() >= cap) {
              // Suspend mid-chain; the generic loop resumes at m.
              left_active_ = true;
              left_had_match_ = had;
              matches_ = build.Chain(m);
              suspended = true;
              break;
            }
            const uint32_t ridx = m - 1;
            ++candidates;
            emit_left_.push_back(static_cast<uint32_t>(left_off_ + raw));
            emit_right_.push_back(ridx);
            had = true;
            m = chain_next[ridx];
          }
        }
        mutable_stats().left_reads += rows_probed;
        mutable_stats().probes += rows_probed;
        mutable_stats().right_reads += candidates;
        mutable_stats().predicate_evals += candidates;
        if (suspended) {
          FlushGather(out);
          return true;
        }
        continue;  // batch exhausted: the refresh block takes over
      }
      ++mutable_stats().left_reads;
      left_had_match_ = false;
      ++mutable_stats().probes;
      matches_ = probe_dense_
                     ? build.Chain(match_head_[input_.sel_index(input_pos_)])
                     : build.Candidates(input_.selected(input_pos_),
                                        left_key_positions_, &probe_key_);
      left_active_ = true;
    }
    const size_t lraw = input_.sel_index(input_pos_);
    bool dropped_left = false;
    while (!matches_.done()) {
      if (gather ? out->NumRows() + emit_left_.size() >= out->capacity()
                 : out->full()) {
        FlushGather(out);
        return true;
      }
      const size_t ridx = matches_.Next();
      ++mutable_stats().right_reads;
      // One predicate check per candidate, as in the kernels. When
      // the predicate is exactly the equi-key conjunction, the probe's
      // normalized-key equality already discharged it (no false
      // positives), so only a residual beyond the keys is re-evaluated.
      ++mutable_stats().predicate_evals;
      if (residual_ != nullptr) {
        const Tuple& lrow = input_.row(lraw);
        const Tuple& rrow = build.row(ridx);
        Tuple* slot = out->PeekSlot();
        slot->AssignConcat(lrow, rrow);
        if (!IsTrue(bound_.Eval(*slot))) continue;
        left_had_match_ = true;
        switch (mode_) {
          case JoinMode::kInner:
          case JoinMode::kLeftOuter:
            out->CommitSlot();
            break;
          case JoinMode::kSemi:
            slot->AssignFrom(lrow);
            out->CommitSlot();
            dropped_left = true;
            break;
          case JoinMode::kAnti:
            dropped_left = true;
            break;
        }
      } else {
        // Pure equi-join: columnar emission, value by value from the
        // probe and build columns — no joined-Tuple assembly.
        left_had_match_ = true;
        switch (mode_) {
          case JoinMode::kInner:
          case JoinMode::kLeftOuter:
            if (gather_batch_ok_ && ridx < ColumnVector::kNullIndex) {
              emit_left_.push_back(static_cast<uint32_t>(left_off_ + lraw));
              emit_right_.push_back(static_cast<uint32_t>(ridx));
            } else {
              for (size_t c = 0; c < left_arity; ++c) {
                out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                                   left_off_ + lraw);
              }
              for (size_t c = 0; c < right_cols_.size(); ++c) {
                out->mutable_column(left_arity + c)
                    ->AppendFrom(*right_cols_[c], ridx);
              }
              out->CommitColumnRow();
            }
            break;
          case JoinMode::kSemi:
            for (size_t c = 0; c < left_arity; ++c) {
              out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                                 left_off_ + lraw);
            }
            out->CommitColumnRow();
            dropped_left = true;
            break;
          case JoinMode::kAnti:
            dropped_left = true;
            break;
        }
      }
      if (dropped_left) break;
    }
    if (!dropped_left) {
      const bool unmatched = !left_had_match_;
      if (mode_ == JoinMode::kLeftOuter && unmatched) {
        if (gather ? out->NumRows() + emit_left_.size() >= out->capacity()
                   : out->full()) {
          FlushGather(out);
          return true;
        }
        if (columnar_emit_ && gather_batch_ok_) {
          emit_left_.push_back(static_cast<uint32_t>(left_off_ + lraw));
          emit_right_.push_back(ColumnVector::kNullIndex);
        } else if (columnar_emit_) {
          for (size_t c = 0; c < left_arity; ++c) {
            out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                               left_off_ + lraw);
          }
          for (size_t c = 0; c < right_cols_.size(); ++c) {
            out->mutable_column(left_arity + c)->AppendNull();
          }
          out->CommitColumnRow();
        } else {
          out->AppendSlot()->AssignConcatNulls(input_.row(lraw),
                                               build.scheme().size());
        }
      } else if (mode_ == JoinMode::kAnti && unmatched) {
        if (out->full()) return true;
        if (columnar_emit_) {
          for (size_t c = 0; c < left_arity; ++c) {
            out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                               left_off_ + lraw);
          }
          out->CommitColumnRow();
        } else {
          out->AppendSlot()->AssignFrom(input_.row(lraw));
        }
      }
    }
    left_active_ = false;
    ++input_pos_;
  }
}

void BatchHashJoinIterator::CloseImpl() {
  left_->Close();
  build_.Close();
  right_cols_.clear();
  left_cols_.clear();
  columnar_emit_ = false;
  probe_dense_ = false;
  match_head_.clear();
  probe_needs_.clear();
  emit_left_.clear();
  emit_right_.clear();
  gather_batch_ok_ = false;
  left_active_ = false;
  matches_ = BuildMatches();
}

const Scheme& BatchHashJoinIterator::scheme() const { return out_scheme_; }

// --- Generalized outerjoin ---------------------------------------------

void GojPadMerge::Reset(int participants) {
  std::lock_guard<std::mutex> lock(mu_);
  merged_.clear();
  running_ = participants;
}

bool GojPadMerge::Finish(Projections* projections,
                         std::vector<std::vector<Value>>* missing) {
  std::lock_guard<std::mutex> lock(mu_);
  // Moves over the projections new to the union; what stays behind was
  // already there and only contributes its flag.
  merged_.merge(*projections);
  for (const auto& [key, matched] : *projections) {
    if (matched) merged_.find(key)->second = true;
  }
  projections->clear();
  FRO_CHECK_GT(running_, 0);
  if (--running_ > 0) return false;  // another participant still streams
  // The union already collapsed projections several participants saw, so
  // each missing DISTINCT projection is listed once.
  for (const auto& [key, matched] : merged_) {
    if (!matched) missing->push_back(key);
  }
  std::sort(missing->begin(), missing->end());
  merged_.clear();
  return true;
}

BatchGojIterator::BatchGojIterator(BatchIteratorPtr left,
                                   JoinBuildInput build,
                                   std::shared_ptr<GojPadMerge> pads,
                                   PredicatePtr pred, AttrSet subset,
                                   std::vector<AttrId> left_keys,
                                   size_t batch_capacity)
    : left_(std::move(left)),
      build_(std::move(build)),
      owns_pads_(pads == nullptr),
      pads_(owns_pads_ ? std::make_shared<GojPadMerge>() : std::move(pads)),
      residual_(left_keys.empty()
                    ? pred
                    : ResidualAfterEquiKeys(pred, left_keys,
                                            build_.side().keys())),
      out_scheme_(left_->scheme().Concat(build_.scheme())),
      left_key_positions_(PositionsIn(left_->scheme(), left_keys)),
      input_(batch_capacity) {
  FRO_CHECK_EQ(left_keys.size(), build_.side().keys().size());
  FRO_CHECK(left_->scheme().ToAttrSet().ContainsAll(subset))
      << "GOJ subset must be contained in the left scheme";
  subset_positions_ = PositionsIn(left_->scheme(), subset.ids());
}

void BatchGojIterator::OpenImpl() {
  left_->Open();
  if (residual_ != nullptr) bound_.Bind(residual_, out_scheme_);
  build_.Open();
  if (owns_pads_) pads_->Reset(1);
  projections_.clear();
  input_.Clear();
  input_pos_ = 0;
  left_active_ = false;
  streamed_ = false;
  pad_rows_.clear();
  pad_pos_ = 0;
}

void BatchGojIterator::RecordProjection(const Tuple& lrow, bool matched) {
  projection_.clear();
  for (int pos : subset_positions_) {
    projection_.push_back(lrow.value(static_cast<size_t>(pos)));
  }
  auto it = projections_.find(projection_);
  if (it == projections_.end()) {
    projections_.emplace(projection_, matched);
  } else if (matched) {
    it->second = true;
  }
}

bool BatchGojIterator::NextBatchImpl(TupleBatch* out) {
  const JoinBuildSide& build = build_.side();
  for (;;) {
    if (streamed_) {
      // Pad phase (last participant only).
      while (!out->full() && pad_pos_ < pad_rows_.size()) {
        out->AppendSlot()->AssignFrom(pad_rows_[pad_pos_++]);
      }
      return !out->empty();
    }
    if (!left_active_) {
      if (input_pos_ >= input_.size()) {
        if (!left_->NextBatch(&input_)) {
          FinishStream();
          continue;
        }
        input_pos_ = 0;
        continue;
      }
      ++mutable_stats().left_reads;
      if (!build.keys().empty()) ++mutable_stats().probes;
      matches_ = build.Candidates(input_.selected(input_pos_),
                                  left_key_positions_, &probe_key_);
      left_had_match_ = false;
      left_active_ = true;
    }
    const Tuple& lrow = input_.selected(input_pos_);
    while (!matches_.done()) {
      if (out->full()) return true;
      const Tuple& rrow = build.row(matches_.Next());
      ++mutable_stats().right_reads;
      Tuple* slot = out->PeekSlot();
      slot->AssignConcat(lrow, rrow);
      ++mutable_stats().predicate_evals;
      if (residual_ == nullptr || IsTrue(bound_.Eval(*slot))) {
        left_had_match_ = true;
        out->CommitSlot();
      }
    }
    RecordProjection(lrow, left_had_match_);
    left_active_ = false;
    ++input_pos_;
  }
}

void BatchGojIterator::FinishStream() {
  streamed_ = true;
  std::vector<std::vector<Value>> missing;
  if (!pads_->Finish(&projections_, &missing)) return;
  // (pi[S](L) - pi[S](JN)) x null. Left columns keep their positions
  // under Concat, so the left-scheme subset positions index the output
  // scheme directly.
  for (const std::vector<Value>& key : missing) {
    std::vector<Value> values(out_scheme_.size());
    for (size_t k = 0; k < subset_positions_.size(); ++k) {
      values[static_cast<size_t>(subset_positions_[k])] = key[k];
    }
    pad_rows_.push_back(Tuple(std::move(values)));
  }
}

void BatchGojIterator::CloseImpl() {
  left_->Close();
  build_.Close();
  left_active_ = false;
  projections_.clear();
  pad_rows_.clear();
  pad_pos_ = 0;
}

const Scheme& BatchGojIterator::scheme() const { return out_scheme_; }

}  // namespace fro
