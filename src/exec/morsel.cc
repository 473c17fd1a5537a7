#include "exec/morsel.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "exec/batch_operators.h"
#include "exec/join_build.h"

namespace fro {

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

MorselScanIterator::MorselScanIterator(
    std::shared_ptr<const RelationSnapshot> snapshot,
    std::shared_ptr<MorselQueue> queue)
    : snapshot_(std::move(snapshot)), queue_(std::move(queue)) {
  FRO_CHECK(snapshot_ != nullptr);
  FRO_CHECK(queue_ != nullptr);
}

void MorselScanIterator::OpenImpl() {
  begin_ = 0;
  end_ = 0;
}

bool MorselScanIterator::NextBatchImpl(TupleBatch* out) {
  if (begin_ >= end_ && !queue_->Claim(&begin_, &end_)) return false;
  const size_t n = std::min(out->capacity(), end_ - begin_);
  out->SetView(&snapshot_->relation().rows()[begin_], n, snapshot_.get(),
               begin_);
  begin_ += n;
  return true;
}

void MorselScanIterator::CloseImpl() {}

const Scheme& MorselScanIterator::scheme() const {
  return snapshot_->relation().scheme();
}

// --- Exchange --------------------------------------------------------------

namespace {

/// One spine join's build side: the build subtree, drained once per
/// exchange Open() into a JoinBuildSide every worker's join probes
/// read-only, and its counters, captured after the drain and spliced
/// into rollups once however many workers probe. A GOJ's also carries
/// the pad merge its workers finish into.
struct SharedJoinInput {
  BatchIteratorPtr build_child;
  PlanOpStats snapshot;
  std::shared_ptr<JoinBuildSide> build;
  std::shared_ptr<GojPadMerge> pads;  // GOJ only
};

/// One spine operator: a restrict, a non-dedup project, or a join-like
/// or GOJ with its shared build side.
struct ExchangeStep {
  ExprPtr expr;
  std::shared_ptr<SharedJoinInput> join;  // join-likes and GOJs only
  std::vector<AttrId> left_keys;  // probe keys; empty for nested loops
};

/// Exchange buffering: at most this many batches per worker are parked
/// between producers and the consumer before producers block.
constexpr size_t kQueuedBatchesPerWorker = 4;

}  // namespace

/// Everything an exchange owns: the driver relation + morsel queue, the
/// spine steps bottom-up (with their shared join inputs), and the worker
/// pipelines compiled from them.
struct ExchangeState {
  /// The driver relation's snapshot, shared by all workers' morsel scans
  /// (it builds each column once under a lock).
  std::shared_ptr<const RelationSnapshot> driver;
  ExprPtr driver_expr;
  std::shared_ptr<MorselQueue> queue;
  std::vector<ExchangeStep> steps;
  std::vector<BatchIteratorPtr> workers;
};

BatchExchangeIterator::BatchExchangeIterator(
    std::unique_ptr<ExchangeState> state, ParallelOptions options)
    : state_(std::move(state)), options_(options) {
  FRO_CHECK(!state_->workers.empty());
  max_queued_ = kQueuedBatchesPerWorker * state_->workers.size();
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
    if (step.join == nullptr) continue;
    SharedJoinInput& join = *step.join;
    join.build->Build(join.build_child.get());
    join.snapshot = SnapshotPlanStats(join.build_child.get());
    if (join.pads != nullptr) join.pads->Reset(workers);
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
    // Stats outlive Close: the snapshot stays.
    if (step.join != nullptr) step.join->build->Release();
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
  BatchIteratorPtr it =
      std::make_unique<MorselScanIterator>(state.driver, state.queue);
  it->set_source_expr(state.driver_expr);
  for (const ExchangeStep& step : state.steps) {
    switch (step.expr->kind()) {
      case OpKind::kRestrict:
        it = std::make_unique<BatchFilterIterator>(std::move(it),
                                                   step.expr->pred());
        break;
      case OpKind::kProject:
        it = std::make_unique<BatchProjectIterator>(
            std::move(it), step.expr->project_cols(), /*dedup=*/false,
            options.batch_capacity);
        break;
      case OpKind::kGoj:
        it = std::make_unique<BatchGojIterator>(
            std::move(it), JoinBuildInput(step.join->build), step.join->pads,
            step.expr->pred(), step.expr->goj_subset(), step.left_keys,
            options.batch_capacity);
        break;
      default: {
        const JoinMode mode = JoinModeOf(step.expr->kind());
        JoinBuildInput build(step.join->build);
        if (!step.left_keys.empty()) {
          it = std::make_unique<BatchHashJoinIterator>(
              std::move(it), std::move(build), step.expr->pred(), mode,
              step.left_keys, options.batch_capacity);
        } else {
          it = std::make_unique<BatchNestedLoopJoinIterator>(
              std::move(it), std::move(build), step.expr->pred(), mode,
              options.batch_capacity);
        }
        break;
      }
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
  state->driver = db.Snapshot(cursor->rel());
  state->driver_expr = cursor;
  state->queue = std::make_shared<MorselQueue>(
      state->driver->relation().NumRows(), options.morsel_rows);
  // Build subtrees run once, serially: every worker then probes one
  // table in the serial plan's build order.
  ParallelOptions build_options = options;
  build_options.threads = 1;
  Scheme scheme = state->driver->relation().scheme();
  for (const ExprPtr& node : chain) {
    ExchangeStep step;
    step.expr = node;
    if (node->kind() == OpKind::kProject) {
      scheme = Scheme(node->project_cols());
    } else if (node->kind() != OpKind::kRestrict) {
      const bool is_goj = node->kind() == OpKind::kGoj;
      const bool spine_is_left = is_goj || node->kind() == OpKind::kJoin ||
                                 node->preserves_left();
      auto join = std::make_shared<SharedJoinInput>();
      join->build_child = BuildParallelBatchIterator(
          spine_is_left ? node->right() : node->left(), db, build_options);
      const Scheme& build_scheme = join->build_child->scheme();
      EquiKeys keys =
          JoinKeys(node->pred(), scheme, build_scheme, options.algo);
      join->build =
          std::make_shared<JoinBuildSide>(build_scheme, std::move(keys.right));
      step.left_keys = std::move(keys.left);
      if (is_goj) {
        join->pads = std::make_shared<GojPadMerge>();
        scheme = scheme.Concat(build_scheme);
      } else {
        scheme = JoinOutScheme(scheme, build_scheme, JoinModeOf(node->kind()));
      }
      step.join = std::move(join);
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
