#include "exec/morsel.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "exec/batch_operators.h"
#include "relational/index.h"
#include "relational/predicate.h"

namespace fro {

namespace {

/// Partition of a normalized, null-free probe/build key: a mix of the
/// per-value structural hashes. Equal keys (post NormalizeHashKeyValue)
/// hash equally, so every build row a probe could match lives in the
/// probe's own partition.
size_t PartitionOfKey(const Value* key, size_t len, size_t partitions) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < len; ++i) {
    h = HashMix(h, static_cast<uint64_t>(key[i].Hash()));
  }
  return static_cast<size_t>(h % partitions);
}

}  // namespace

// --- Morsel queue / scan ---------------------------------------------------

MorselQueue::MorselQueue(size_t total_rows, size_t morsel_rows)
    : total_rows_(total_rows), morsel_rows_(morsel_rows) {
  FRO_CHECK_GE(morsel_rows_, size_t{1});
}

bool MorselQueue::Claim(size_t* begin, size_t* end) {
  const size_t start = next_.fetch_add(morsel_rows_, std::memory_order_relaxed);
  if (start >= total_rows_) return false;
  *begin = start;
  *end = std::min(total_rows_, start + morsel_rows_);
  return true;
}

MorselScanIterator::MorselScanIterator(const Relation* relation,
                                       std::shared_ptr<MorselQueue> queue,
                                       std::shared_ptr<RelationColumns> columns)
    : relation_(relation),
      queue_(std::move(queue)),
      columns_(std::move(columns)) {
  FRO_CHECK(relation_ != nullptr);
  FRO_CHECK(queue_ != nullptr);
}

void MorselScanIterator::OpenImpl() {
  begin_ = 0;
  end_ = 0;
}

bool MorselScanIterator::NextBatchImpl(TupleBatch* out) {
  if (begin_ >= end_ && !queue_->Claim(&begin_, &end_)) return false;
  const size_t n = std::min(out->capacity(), end_ - begin_);
  out->SetView(&relation_->rows()[begin_], n, columns_.get(), begin_);
  begin_ += n;
  return true;
}

void MorselScanIterator::CloseImpl() {}

const Scheme& MorselScanIterator::scheme() const {
  return relation_->scheme();
}

// --- Shared join inputs ----------------------------------------------------

namespace {

/// One spine join's build side, shared read-only by every worker after
/// Prepare(): the materialized rows, and — on the hash path — the rows
/// partitioned by normalized key hash with one HashIndex per partition.
/// For a GOJ it additionally hosts the cross-partition padding merge.
struct SharedJoinInput {
  // Fixed at plan time.
  bool is_goj = false;
  JoinMode mode = JoinMode::kInner;
  PredicatePtr pred;
  AttrSet goj_subset;
  bool use_hash = false;
  std::vector<AttrId> left_keys;
  std::vector<AttrId> right_keys;
  BatchIteratorPtr build_child;
  Scheme build_scheme;

  // Prepared once per exchange Open().
  Relation rows;  // the nested-loop candidate set; empty-schemed after Close
  PlanOpStats snapshot;  // build pipeline counters, captured post-drain
  size_t partitions = 0;
  std::vector<int> build_key_positions;
  std::vector<Relation> part_rows;
  std::vector<Relation> part_normalized;
  std::vector<std::unique_ptr<HashIndex>> part_index;

  // GOJ padding merge (paper eq. 14): pi[S] of the join and of the
  // preserved input, unioned across workers as each finishes its morsels;
  // the worker that drops goj_workers_remaining to zero emits the pads.
  std::mutex goj_mu;
  std::set<std::vector<Value>> goj_matched_projections;
  std::set<std::vector<Value>> goj_left_projections;
  int goj_workers_remaining = 0;

  void Prepare(int workers);
  void ReleaseExecutionState();

  /// Candidate rows for a normalized, null-free probe key: the matching
  /// partition's index probe. `*part_out` names the partition the row
  /// indices refer to.
  const std::vector<size_t>& Probe(const std::vector<Value>& key,
                                   size_t* part_out) const {
    const size_t p = PartitionOfKey(key.data(), key.size(), partitions);
    *part_out = p;
    return part_index[p]->Probe(key.data(), key.size());
  }
};

void SharedJoinInput::Prepare(int workers) {
  // Drain the build pipeline exactly once per execution; its counters are
  // captured here and spliced into rollups once, however many workers
  // probe the result.
  rows = Relation(build_scheme);
  build_child->Open();
  TupleBatch scratch;
  while (build_child->NextBatch(&scratch)) {
    const size_t n = scratch.size();
    for (size_t i = 0; i < n; ++i) rows.AddRow(scratch.selected(i));
  }
  build_child->Close();
  snapshot = SnapshotPlanStats(build_child.get());

  if (is_goj) {
    goj_matched_projections.clear();
    goj_left_projections.clear();
    goj_workers_remaining = workers;
  }

  if (!use_hash) return;

  // Partitioned build. Rows whose normalized key contains a null are left
  // out: a null key never equi-matches, so no probe could fetch them —
  // exactly the rows HashIndex declines to index.
  partitions = static_cast<size_t>(std::max(1, workers));
  build_key_positions.clear();
  for (AttrId attr : right_keys) {
    const int pos = rows.scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0);
    build_key_positions.push_back(pos);
  }
  const size_t n = rows.NumRows();
  constexpr uint32_t kUnindexed = ~uint32_t{0};
  std::vector<uint32_t> part_of(n, kUnindexed);
  std::vector<Value> key;
  key.reserve(build_key_positions.size());
  for (size_t r = 0; r < n; ++r) {
    key.clear();
    bool null_key = false;
    for (int pos : build_key_positions) {
      Value v = NormalizeHashKeyValue(rows.row(r).value(static_cast<size_t>(pos)));
      if (v.is_null()) {
        null_key = true;
        break;
      }
      key.push_back(std::move(v));
    }
    if (!null_key) {
      part_of[r] = static_cast<uint32_t>(
          PartitionOfKey(key.data(), key.size(), partitions));
    }
  }
  part_rows.clear();
  part_normalized.clear();
  part_index.clear();
  part_index.resize(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    part_rows.emplace_back(rows.scheme());
    part_normalized.emplace_back(rows.scheme());
  }
  // One build task per partition, fanned across the worker budget. Each
  // partition keeps its rows in build order, so duplicate-key chains — and
  // therefore match order — equal the serial single-index path's.
  auto build_partition = [&](size_t p) {
    Relation& dst = part_rows[p];
    for (size_t r = 0; r < n; ++r) {
      if (part_of[r] == static_cast<uint32_t>(p)) dst.AddRow(rows.row(r));
    }
    part_normalized[p] = NormalizeOnKeyColumns(dst, right_keys);
    part_index[p] = std::make_unique<HashIndex>(part_normalized[p], right_keys);
  };
  if (partitions == 1) {
    build_partition(0);
    return;
  }
  std::atomic<size_t> next{0};
  auto pump = [&] {
    size_t p;
    while ((p = next.fetch_add(1, std::memory_order_relaxed)) < partitions) {
      build_partition(p);
    }
  };
  std::vector<std::thread> builders;
  for (int t = 1; t < workers; ++t) builders.emplace_back(pump);
  pump();
  for (std::thread& t : builders) t.join();
}

void SharedJoinInput::ReleaseExecutionState() {
  // Drop the per-execution materializations (mirroring the serial
  // operators' Close()) but keep `snapshot`: stats outlive Close.
  rows = Relation();
  partitions = 0;
  build_key_positions.clear();
  part_rows.clear();
  part_index.clear();
  part_normalized.clear();
}

// --- Worker join operators -------------------------------------------------

/// Worker-side hash join probing a SharedJoinInput's partitioned index.
/// Accounting mirrors BatchHashJoinIterator's generic path: one
/// left_read + one probe per probe row (probes always, before the
/// null-key check), one right_read + one predicate_eval per candidate,
/// residual-only re-evaluation, anti/semi stop at the first match.
class ParallelHashJoinIterator : public BatchIterator {
 public:
  ParallelHashJoinIterator(BatchIteratorPtr left,
                           std::shared_ptr<SharedJoinInput> shared,
                           size_t batch_capacity)
      : left_(std::move(left)),
        shared_(std::move(shared)),
        out_scheme_(JoinOutScheme(left_->scheme(), shared_->build_scheme,
                                  shared_->mode)),
        joined_scheme_(left_->scheme().Concat(shared_->build_scheme)),
        input_(batch_capacity) {
    for (AttrId attr : shared_->left_keys) {
      const int pos = left_->scheme().IndexOf(attr);
      FRO_CHECK_GE(pos, 0);
      left_key_positions_.push_back(pos);
    }
  }

  const Scheme& scheme() const override { return out_scheme_; }
  const char* physical_name() const override { return "HashJoin"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get()};
  }

 protected:
  void OpenImpl() override {
    left_->Open();
    residual_ = ResidualAfterEquiKeys(shared_->pred, shared_->left_keys,
                                      shared_->right_keys);
    if (residual_ != nullptr) bound_.Bind(residual_, joined_scheme_);
    input_.Clear();
    input_pos_ = 0;
    left_active_ = false;
    matches_ = nullptr;
  }

  bool NextBatchImpl(TupleBatch* out) override {
    for (;;) {
      if (!left_active_) {
        if (input_pos_ >= input_.size()) {
          if (!left_->NextBatch(&input_)) return !out->empty();
          input_pos_ = 0;
          continue;
        }
        const Tuple& lrow = input_.selected(input_pos_);
        ++mutable_stats().left_reads;
        left_had_match_ = false;
        match_pos_ = 0;
        ++mutable_stats().probes;
        probe_key_.clear();
        bool null_key = false;
        for (int pos : left_key_positions_) {
          Value v = NormalizeHashKeyValue(lrow.value(static_cast<size_t>(pos)));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          probe_key_.push_back(std::move(v));
        }
        matches_ = null_key ? &no_matches_
                            : &shared_->Probe(probe_key_, &partition_);
        left_active_ = true;
      }
      const Tuple& lrow = input_.selected(input_pos_);
      bool dropped_left = false;
      while (match_pos_ < matches_->size()) {
        if (out->full()) return true;
        const size_t ridx = (*matches_)[match_pos_++];
        const Tuple& rrow = shared_->part_rows[partition_].row(ridx);
        ++mutable_stats().right_reads;
        ++mutable_stats().predicate_evals;
        if (residual_ != nullptr) {
          Tuple* slot = out->PeekSlot();
          slot->AssignConcat(lrow, rrow);
          if (!IsTrue(bound_.Eval(*slot))) continue;
          left_had_match_ = true;
          switch (shared_->mode) {
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
          left_had_match_ = true;
          switch (shared_->mode) {
            case JoinMode::kInner:
            case JoinMode::kLeftOuter:
              out->PeekSlot()->AssignConcat(lrow, rrow);
              out->CommitSlot();
              break;
            case JoinMode::kSemi:
              out->PeekSlot()->AssignFrom(lrow);
              out->CommitSlot();
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
        if (shared_->mode == JoinMode::kLeftOuter && unmatched) {
          if (out->full()) return true;
          out->AppendSlot()->AssignConcatNulls(lrow,
                                               shared_->build_scheme.size());
        } else if (shared_->mode == JoinMode::kAnti && unmatched) {
          if (out->full()) return true;
          out->AppendSlot()->AssignFrom(lrow);
        }
      }
      left_active_ = false;
      ++input_pos_;
    }
  }

  void CloseImpl() override {
    left_->Close();
    left_active_ = false;
    matches_ = nullptr;
  }

 private:
  BatchIteratorPtr left_;
  std::shared_ptr<SharedJoinInput> shared_;
  Scheme out_scheme_;
  Scheme joined_scheme_;
  PredicatePtr residual_;
  BoundPredicate bound_;
  std::vector<int> left_key_positions_;
  std::vector<Value> probe_key_;
  size_t partition_ = 0;
  TupleBatch input_;
  size_t input_pos_ = 0;
  bool left_active_ = false;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  bool left_had_match_ = false;
  const std::vector<size_t> no_matches_;
};

/// Worker-side block nested-loop join over a SharedJoinInput's
/// materialized rows. Accounting mirrors BatchNestedLoopJoinIterator.
class ParallelNestedLoopJoinIterator : public BatchIterator {
 public:
  ParallelNestedLoopJoinIterator(BatchIteratorPtr left,
                                 std::shared_ptr<SharedJoinInput> shared,
                                 size_t batch_capacity)
      : left_(std::move(left)),
        shared_(std::move(shared)),
        out_scheme_(JoinOutScheme(left_->scheme(), shared_->build_scheme,
                                  shared_->mode)),
        joined_scheme_(left_->scheme().Concat(shared_->build_scheme)),
        input_(batch_capacity) {}

  const Scheme& scheme() const override { return out_scheme_; }
  const char* physical_name() const override { return "NestedLoopJoin"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get()};
  }

 protected:
  void OpenImpl() override {
    left_->Open();
    if (shared_->pred != nullptr) bound_.Bind(shared_->pred, joined_scheme_);
    input_.Clear();
    input_pos_ = 0;
    left_active_ = false;
  }

  bool NextBatchImpl(TupleBatch* out) override {
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
      bool dropped_left = false;
      while (right_pos_ < shared_->rows.NumRows()) {
        if (out->full()) return true;
        const Tuple& rrow = shared_->rows.row(right_pos_++);
        ++mutable_stats().right_reads;
        Tuple* slot = out->PeekSlot();
        slot->AssignConcat(lrow, rrow);
        ++mutable_stats().predicate_evals;
        if (shared_->pred != nullptr && !IsTrue(bound_.Eval(*slot))) {
          continue;
        }
        left_had_match_ = true;
        switch (shared_->mode) {
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
        const bool unmatched = !left_had_match_;
        if (shared_->mode == JoinMode::kLeftOuter && unmatched) {
          if (out->full()) return true;
          out->AppendSlot()->AssignConcatNulls(lrow,
                                               shared_->build_scheme.size());
        } else if (shared_->mode == JoinMode::kAnti && unmatched) {
          if (out->full()) return true;
          out->AppendSlot()->AssignFrom(lrow);
        }
      }
      left_active_ = false;
      ++input_pos_;
    }
  }

  void CloseImpl() override {
    left_->Close();
    left_active_ = false;
  }

 private:
  BatchIteratorPtr left_;
  std::shared_ptr<SharedJoinInput> shared_;
  Scheme out_scheme_;
  Scheme joined_scheme_;
  BoundPredicate bound_;
  TupleBatch input_;
  size_t input_pos_ = 0;
  bool left_active_ = false;
  size_t right_pos_ = 0;
  bool left_had_match_ = false;
};

/// Worker-side streaming GOJ (paper eq. 14). Joined tuples stream out as
/// the worker's morsels produce them; the per-DISTINCT-S-projection pads
/// need the global pi[S](L) − pi[S](JN) difference, so each worker folds
/// its local projection sets into the shared input when its stream ends
/// and the last worker to finish emits every pad exactly once.
///
/// Accounting mirrors the GeneralizedOuterJoin kernel's Matcher: one
/// left_read per preserved row, one probe per row in hash mode only, one
/// right_read + one full-predicate evaluation per candidate (the kernel
/// never elides equi-key conjuncts), pads counted as ordinary emissions.
class ParallelGojIterator : public BatchIterator {
 public:
  ParallelGojIterator(BatchIteratorPtr left,
                      std::shared_ptr<SharedJoinInput> shared,
                      size_t batch_capacity)
      : left_(std::move(left)),
        shared_(std::move(shared)),
        out_scheme_(left_->scheme().Concat(shared_->build_scheme)),
        input_(batch_capacity) {
    for (AttrId attr : shared_->goj_subset) {
      const int pos = left_->scheme().IndexOf(attr);
      FRO_CHECK_GE(pos, 0) << "GOJ subset must be contained in the left scheme";
      subset_positions_.push_back(pos);
    }
    for (AttrId attr : shared_->left_keys) {
      left_key_positions_.push_back(left_->scheme().IndexOf(attr));
    }
  }

  const Scheme& scheme() const override { return out_scheme_; }
  const char* physical_name() const override { return "Goj"; }
  std::vector<BatchIterator*> children() const override {
    return {left_.get()};
  }

 protected:
  void OpenImpl() override {
    left_->Open();
    if (shared_->pred != nullptr) bound_.Bind(shared_->pred, out_scheme_);
    local_matched_.clear();
    local_left_.clear();
    input_.Clear();
    input_pos_ = 0;
    left_active_ = false;
    matches_ = nullptr;
    merged_ = false;
    done_ = false;
    pad_rows_.clear();
    pad_pos_ = 0;
  }

  bool NextBatchImpl(TupleBatch* out) override {
    for (;;) {
      if (done_) return !out->empty();
      if (merged_) {
        // Pad phase (last worker only): stream the set-difference pads.
        while (!out->full() && pad_pos_ < pad_rows_.size()) {
          out->AppendSlot()->AssignFrom(pad_rows_[pad_pos_++]);
        }
        if (pad_pos_ >= pad_rows_.size()) {
          done_ = true;
          continue;
        }
        return true;
      }
      if (!left_active_) {
        if (input_pos_ >= input_.size()) {
          if (!left_->NextBatch(&input_)) {
            MergeProjections();
            continue;
          }
          input_pos_ = 0;
          continue;
        }
        const Tuple& lrow = input_.selected(input_pos_);
        ++mutable_stats().left_reads;
        left_had_match_ = false;
        if (shared_->use_hash) {
          match_pos_ = 0;
          ++mutable_stats().probes;
          probe_key_.clear();
          bool null_key = false;
          for (int pos : left_key_positions_) {
            Value v =
                NormalizeHashKeyValue(lrow.value(static_cast<size_t>(pos)));
            if (v.is_null()) {
              null_key = true;
              break;
            }
            probe_key_.push_back(std::move(v));
          }
          matches_ = null_key ? &no_matches_
                              : &shared_->Probe(probe_key_, &partition_);
        } else {
          right_pos_ = 0;
        }
        left_active_ = true;
      }
      const Tuple& lrow = input_.selected(input_pos_);
      for (;;) {
        const Tuple* rrow;
        if (shared_->use_hash) {
          if (match_pos_ >= matches_->size()) break;
          if (out->full()) return true;
          rrow = &shared_->part_rows[partition_].row((*matches_)[match_pos_++]);
        } else {
          if (right_pos_ >= shared_->rows.NumRows()) break;
          if (out->full()) return true;
          rrow = &shared_->rows.row(right_pos_++);
        }
        ++mutable_stats().right_reads;
        Tuple* slot = out->PeekSlot();
        slot->AssignConcat(lrow, *rrow);
        ++mutable_stats().predicate_evals;
        if (shared_->pred == nullptr || IsTrue(bound_.Eval(*slot))) {
          left_had_match_ = true;
          local_matched_.insert(ProjectSubset(lrow));
          out->CommitSlot();
        }
      }
      local_left_.insert(ProjectSubset(lrow));
      left_active_ = false;
      ++input_pos_;
    }
  }

  void CloseImpl() override {
    left_->Close();
    left_active_ = false;
    matches_ = nullptr;
    local_matched_.clear();
    local_left_.clear();
    pad_rows_.clear();
    pad_pos_ = 0;
  }

 private:
  std::vector<Value> ProjectSubset(const Tuple& lrow) const {
    std::vector<Value> key;
    key.reserve(subset_positions_.size());
    for (int pos : subset_positions_) {
      key.push_back(lrow.value(static_cast<size_t>(pos)));
    }
    return key;
  }

  void MergeProjections() {
    merged_ = true;
    std::lock_guard<std::mutex> lock(shared_->goj_mu);
    shared_->goj_matched_projections.insert(local_matched_.begin(),
                                            local_matched_.end());
    shared_->goj_left_projections.insert(local_left_.begin(),
                                         local_left_.end());
    FRO_CHECK_GT(shared_->goj_workers_remaining, 0);
    if (--shared_->goj_workers_remaining > 0) {
      // Another worker is still streaming; nothing to pad here.
      done_ = true;
      return;
    }
    // Last worker: (pi[S](L) − pi[S](JN)) × null, one pad per missing
    // DISTINCT projection — the std::set union already deduplicated
    // projections that appeared in several workers' morsels. Left columns
    // keep their positions under Concat, so the left-scheme subset
    // positions index the output scheme directly.
    for (const std::vector<Value>& key : shared_->goj_left_projections) {
      if (shared_->goj_matched_projections.count(key) > 0) continue;
      std::vector<Value> values(out_scheme_.size());
      for (size_t k = 0; k < subset_positions_.size(); ++k) {
        values[static_cast<size_t>(subset_positions_[k])] = key[k];
      }
      pad_rows_.push_back(Tuple(std::move(values)));
    }
  }

  BatchIteratorPtr left_;
  std::shared_ptr<SharedJoinInput> shared_;
  Scheme out_scheme_;
  BoundPredicate bound_;
  std::vector<int> subset_positions_;
  std::vector<int> left_key_positions_;
  std::vector<Value> probe_key_;
  size_t partition_ = 0;
  TupleBatch input_;
  size_t input_pos_ = 0;
  bool left_active_ = false;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  size_t right_pos_ = 0;
  bool left_had_match_ = false;
  std::set<std::vector<Value>> local_matched_;
  std::set<std::vector<Value>> local_left_;
  bool merged_ = false;
  bool done_ = false;
  std::vector<Tuple> pad_rows_;
  size_t pad_pos_ = 0;
  const std::vector<size_t> no_matches_;
};

}  // namespace

// --- Exchange --------------------------------------------------------------

namespace {

enum class StepKind { kFilter, kProject, kJoin, kGoj };

struct ExchangeStep {
  ExprPtr expr;
  StepKind kind = StepKind::kFilter;
  std::shared_ptr<SharedJoinInput> join;  // kJoin / kGoj only
};

}  // namespace

/// Everything an exchange owns: the driver relation + morsel queue, the
/// spine steps bottom-up (with their shared join inputs), and the worker
/// pipelines compiled from them.
struct ExchangeState {
  const Relation* driver = nullptr;
  ExprPtr driver_expr;
  std::shared_ptr<MorselQueue> queue;
  /// Column cache over the driver relation, shared by all workers'
  /// morsel scans (RelationColumns builds each column once under a lock).
  std::shared_ptr<RelationColumns> driver_columns;
  std::vector<ExchangeStep> steps;
  std::vector<BatchIteratorPtr> workers;
};

BatchExchangeIterator::BatchExchangeIterator(
    std::unique_ptr<ExchangeState> state, ParallelOptions options)
    : state_(std::move(state)), options_(options) {
  FRO_CHECK(!state_->workers.empty());
  max_queued_ =
      std::max<size_t>(1, options_.queue_batches) * state_->workers.size();
}

BatchExchangeIterator::~BatchExchangeIterator() { CloseImpl(); }

const Scheme& BatchExchangeIterator::scheme() const {
  return state_->workers.front()->scheme();
}

int BatchExchangeIterator::workers() const {
  return static_cast<int>(state_->workers.size());
}

void BatchExchangeIterator::EnableTiming(bool on) {
  BatchIterator::EnableTiming(on);
  for (const BatchIteratorPtr& worker : state_->workers) {
    worker->EnableTiming(on);
  }
  for (const ExchangeStep& step : state_->steps) {
    if (step.join != nullptr) step.join->build_child->EnableTiming(on);
  }
}

void BatchExchangeIterator::SetControl(ExecControl* control) {
  BatchIterator::SetControl(control);
  for (const BatchIteratorPtr& worker : state_->workers) {
    worker->SetControl(control);
  }
  for (const ExchangeStep& step : state_->steps) {
    if (step.join != nullptr) step.join->build_child->SetControl(control);
  }
}

void BatchExchangeIterator::OpenImpl() {
  const int workers = static_cast<int>(state_->workers.size());
  for (const ExchangeStep& step : state_->steps) {
    if (step.join != nullptr) step.join->Prepare(workers);
  }
  state_->queue->Reset();
  pending_.clear();
  pending_pos_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.clear();
    closed_ = false;
    producers_live_ = state_->workers.size();
  }
  threads_.reserve(state_->workers.size());
  for (size_t i = 0; i < state_->workers.size(); ++i) {
    threads_.emplace_back(&BatchExchangeIterator::WorkerMain, this, i);
  }
}

void BatchExchangeIterator::WorkerMain(size_t worker_index) {
  BatchIterator* worker = state_->workers[worker_index].get();
  worker->Open();
  TupleBatch batch(options_.batch_capacity);
  while (worker->NextBatch(&batch)) {
    if (batch.empty()) continue;
    std::vector<Tuple> staged;
    staged.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      staged.push_back(batch.selected(i));
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [&] {
        return closed_ || ready_.size() < max_queued_;
      });
      if (closed_) break;  // consumer abandoned the stream; drop the batch
      ready_.push_back(std::move(staged));
    }
    not_empty_.notify_one();
  }
  worker->Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --producers_live_;
  }
  not_empty_.notify_all();
}

bool BatchExchangeIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    while (!out->full() && pending_pos_ < pending_.size()) {
      out->AppendSlot()->AssignFrom(pending_[pending_pos_++]);
    }
    if (out->full()) return true;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock,
                    [&] { return !ready_.empty() || producers_live_ == 0; });
    if (ready_.empty()) return !out->empty();
    pending_ = std::move(ready_.front());
    ready_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    pending_pos_ = 0;
  }
}

void BatchExchangeIterator::CloseImpl() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.clear();
  }
  pending_.clear();
  pending_pos_ = 0;
  for (const ExchangeStep& step : state_->steps) {
    if (step.join != nullptr) step.join->ReleaseExecutionState();
  }
}

ExecStats BatchExchangeIterator::CollectWorkerStats() const {
  ExecStats totals;
  for (const BatchIteratorPtr& worker : state_->workers) {
    totals += CollectPipelineStats(worker.get());
  }
  for (const ExchangeStep& step : state_->steps) {
    if (step.join != nullptr) totals += SumPipelineStats(step.join->snapshot);
  }
  return totals;
}

namespace {

void MergeSnapshots(PlanOpStats* into, const PlanOpStats& other) {
  FRO_CHECK_EQ(into->children.size(), other.children.size())
      << "worker pipelines must be structurally identical";
  into->stats += other.stats;
  for (size_t i = 0; i < into->children.size(); ++i) {
    MergeSnapshots(&into->children[i], other.children[i]);
  }
}

}  // namespace

PlanOpStats BatchExchangeIterator::SnapshotMerged() const {
  PlanOpStats merged = SnapshotPlanStats(state_->workers.front().get());
  for (size_t i = 1; i < state_->workers.size(); ++i) {
    MergeSnapshots(&merged, SnapshotPlanStats(state_->workers[i].get()));
  }
  // Walk the spine top-down (steps are stored bottom-up) and attach each
  // shared build subtree's snapshot as its join's right child; the worker
  // chain node stays children[0], matching the serial (left, right)
  // order.
  PlanOpStats* node = &merged;
  for (auto it = state_->steps.rbegin(); it != state_->steps.rend(); ++it) {
    if (it->join != nullptr) node->children.push_back(it->join->snapshot);
    FRO_CHECK(!node->children.empty());
    node = &node->children[0];
  }
  return merged;
}

// --- Spine analysis + exchange assembly ----------------------------------

namespace {

/// The operand the worker pipelines stream: the preserved/kept side of a
/// join-like (the one the plan builder anchors left), the input of a
/// restrict/project, the preserved (left) operand of a GOJ.
const ExprPtr& SpineChild(const ExprPtr& expr) {
  if (expr->is_join_like()) {
    const bool spine_is_left =
        expr->kind() == OpKind::kJoin || expr->preserves_left();
    return spine_is_left ? expr->left() : expr->right();
  }
  return expr->left();
}

bool SpineEligible(const ExprPtr& expr) {
  switch (expr->kind()) {
    case OpKind::kLeaf:
      return true;
    case OpKind::kRestrict:
    case OpKind::kGoj:
      return SpineEligible(expr->left());
    case OpKind::kProject:
      // Duplicate elimination needs a global seen-set; run it serially
      // over the merged stream instead.
      return !expr->project_dedup() && SpineEligible(expr->left());
    case OpKind::kJoin:
    case OpKind::kOuterJoin:
    case OpKind::kAntijoin:
    case OpKind::kSemijoin:
      return SpineEligible(SpineChild(expr));
    default:
      return false;
  }
}

/// Compiles one worker pipeline from the planned spine.
BatchIteratorPtr BuildWorker(const ExchangeState& state,
                             const ParallelOptions& options) {
  BatchIteratorPtr it = std::make_unique<MorselScanIterator>(
      state.driver, state.queue, state.driver_columns);
  it->set_source_expr(state.driver_expr);
  for (const ExchangeStep& step : state.steps) {
    switch (step.kind) {
      case StepKind::kFilter:
        it = std::make_unique<BatchFilterIterator>(std::move(it),
                                                   step.expr->pred());
        break;
      case StepKind::kProject:
        it = std::make_unique<BatchProjectIterator>(
            std::move(it), step.expr->project_cols(), /*dedup=*/false,
            options.batch_capacity);
        break;
      case StepKind::kJoin:
        if (step.join->use_hash) {
          it = std::make_unique<ParallelHashJoinIterator>(
              std::move(it), step.join, options.batch_capacity);
        } else {
          it = std::make_unique<ParallelNestedLoopJoinIterator>(
              std::move(it), step.join, options.batch_capacity);
        }
        break;
      case StepKind::kGoj:
        it = std::make_unique<ParallelGojIterator>(std::move(it), step.join,
                                                   options.batch_capacity);
        break;
    }
    it->set_source_expr(step.expr);
  }
  return it;
}

}  // namespace

bool MorselParallelizable(const ExprPtr& expr) {
  return expr != nullptr && SpineEligible(expr);
}

BatchIteratorPtr MakeExchange(const ExprPtr& expr, const Database& db,
                              const ParallelOptions& options) {
  FRO_CHECK(SpineEligible(expr)) << "no parallelizable spine";
  // Collect the spine root-to-leaf, then plan bottom-up so each step sees
  // its input scheme (which must equal the serial left child's scheme —
  // key extraction and hash/NL choice depend on it).
  std::vector<ExprPtr> chain;
  ExprPtr cursor = expr;
  while (!cursor->is_leaf()) {
    chain.push_back(cursor);
    cursor = SpineChild(cursor);
  }
  std::reverse(chain.begin(), chain.end());

  auto state = std::make_unique<ExchangeState>();
  state->driver = &db.relation(cursor->rel());
  state->driver_expr = cursor;
  state->queue = std::make_shared<MorselQueue>(state->driver->NumRows(),
                                               options.morsel_rows);
  state->driver_columns = db.CachedColumns(cursor->rel());
  Scheme scheme = state->driver->scheme();
  for (const ExprPtr& node : chain) {
    ExchangeStep step;
    step.expr = node;
    switch (node->kind()) {
      case OpKind::kRestrict:
        step.kind = StepKind::kFilter;
        break;
      case OpKind::kProject:
        step.kind = StepKind::kProject;
        scheme = Scheme(node->project_cols());
        break;
      case OpKind::kGoj: {
        step.kind = StepKind::kGoj;
        auto shared = std::make_shared<SharedJoinInput>();
        shared->is_goj = true;
        shared->pred = node->pred();
        shared->goj_subset = node->goj_subset();
        shared->build_child =
            BuildParallelBatchIterator(node->right(), db, options);
        shared->build_scheme = shared->build_child->scheme();
        EquiKeys keys =
            ExtractEquiKeys(node->pred(), scheme, shared->build_scheme);
        // Matcher's strategy choice: hash unless forced to nested loop or
        // no equi keys exist.
        shared->use_hash =
            keys.Usable() && options.algo != JoinAlgo::kNestedLoop;
        shared->left_keys = std::move(keys.left);
        shared->right_keys = std::move(keys.right);
        step.join = std::move(shared);
        scheme = scheme.Concat(step.join->build_scheme);
        break;
      }
      default: {
        FRO_CHECK(node->is_join_like());
        step.kind = StepKind::kJoin;
        auto shared = std::make_shared<SharedJoinInput>();
        shared->mode = JoinModeOf(node->kind());
        shared->pred = node->pred();
        const bool spine_is_left =
            node->kind() == OpKind::kJoin || node->preserves_left();
        const ExprPtr& off_spine =
            spine_is_left ? node->right() : node->left();
        shared->build_child =
            BuildParallelBatchIterator(off_spine, db, options);
        shared->build_scheme = shared->build_child->scheme();
        EquiKeys keys =
            ExtractEquiKeys(node->pred(), scheme, shared->build_scheme);
        shared->use_hash = keys.Usable() && (options.algo == JoinAlgo::kHash ||
                                             options.algo == JoinAlgo::kAuto);
        shared->left_keys = std::move(keys.left);
        shared->right_keys = std::move(keys.right);
        const JoinMode mode = shared->mode;
        step.join = std::move(shared);
        scheme = JoinOutScheme(scheme, step.join->build_scheme, mode);
        break;
      }
    }
    state->steps.push_back(std::move(step));
  }
  for (int i = 0; i < options.threads; ++i) {
    state->workers.push_back(BuildWorker(*state, options));
  }
  BatchIteratorPtr it =
      std::make_unique<BatchExchangeIterator>(std::move(state), options);
  it->set_source_expr(expr);
  return it;
}

}  // namespace fro
