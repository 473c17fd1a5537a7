// Batch-at-a-time pipelined execution, the library's executor: every
// physical operator is a batch iterator with Open/NextBatch/Close. The
// materializing evaluator in algebra/eval.h remains the semantic and
// counter reference (tests assert the two agree on every operator, on
// results and on execution counters alike). Interpretation overhead
// (virtual dispatch, ExecControl checks, clock reads under timing) is
// paid once per TupleBatch instead of once per tuple.
//
// The counters follow the kernel accounting of relational/ops.h exactly,
// tuple for tuple: a batch filter that inspects 1024 tuples adds 1024 to
// left_reads and predicate_evals. Summing the non-scan operators of a
// pipeline reproduces the totals the evaluator reports for the same
// expression. Open() resets the counters, keeping rescans
// self-contained.

#ifndef FRO_EXEC_BATCH_ITERATOR_H_
#define FRO_EXEC_BATCH_ITERATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/expr.h"
#include "common/status.h"
#include "exec/batch.h"
#include "relational/column_table.h"
#include "relational/exec_stats.h"
#include "relational/relation.h"

namespace fro {

/// The four modes of the join-like operators, sharing one matching core:
/// inner join, left outer join, antijoin (emit left tuples with no
/// match), and semijoin (emit left tuples with a match, once).
enum class JoinMode : uint8_t {
  kInner,
  kLeftOuter,
  kAnti,
  kSemi,
};

/// Cooperative interruption of a running pipeline: a cancel flag any
/// thread may raise and an optional wall-clock deadline. Every operator
/// consults the control at the top of NextBatch() (see BatchIterator),
/// so a pipeline stops within one batch of the request at any depth.
///
/// Threading: RequestCancel() may be called from any thread; arming the
/// deadline belongs to the driving thread, before Open(). ShouldStopBatch(),
/// stopped(), and status() are safe from concurrent worker threads — the
/// morsel-parallel executor shares one control across all workers, so
/// both stop flags are relaxed atomics.
class ExecControl {
 public:
  /// Raises the cancel flag; safe from any thread, idempotent.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms the deadline. Call before Open(), from the driving thread.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    has_deadline_ = true;
    deadline_ = deadline;
  }

  /// True once the pipeline should stop producing. Consults the clock on
  /// every call: it runs once per TupleBatch, which already amortizes
  /// the clock read.
  bool ShouldStopBatch() {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (deadline_hit_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// True if any stop condition fired (without re-checking the clock).
  bool stopped() const {
    return deadline_hit_.load(std::memory_order_relaxed) ||
           cancelled_.load(std::memory_order_relaxed);
  }

  /// Why the pipeline stopped: Cancelled, DeadlineExceeded, or OK.
  Status status() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return fro::Cancelled("query cancelled");
    }
    if (deadline_hit_.load(std::memory_order_relaxed)) {
      return DeadlineExceeded("query deadline exceeded");
    }
    return Status::Ok();
  }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::atomic<bool> deadline_hit_{false};
  std::chrono::steady_clock::time_point deadline_{};
};

/// Pull-based batch iterator. Lifecycle: Open() -> NextBatch()* ->
/// Close(); Open() after Close() rescans. Subclasses implement the *Impl
/// hooks; the public entry points maintain stats, timing, and the
/// per-batch ExecControl check.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;

  void Open() {
    stats_ = ExecStats();
    if (timing_) {
      const auto start = std::chrono::steady_clock::now();
      OpenImpl();
      stats_.open_ns += ElapsedNs(start);
    } else {
      OpenImpl();
    }
  }

  /// Clears `out` and refills it. Returns true iff `out` holds at least
  /// one live row; false means exhausted — or that the attached
  /// ExecControl asked the pipeline to stop. Callers that attached a
  /// control should prefer DrainChecked, which surfaces the distinction
  /// as a Status.
  bool NextBatch(TupleBatch* out) {
    if (control_ != nullptr && control_->ShouldStopBatch()) return false;
    out->Clear();
    bool produced;
    if (timing_) {
      const auto start = std::chrono::steady_clock::now();
      produced = NextBatchImpl(out);
      stats_.next_ns += ElapsedNs(start);
    } else {
      produced = NextBatchImpl(out);
    }
    stats_.emitted += out->size();
    return produced;
  }

  void Close() { CloseImpl(); }

  /// The output scheme; valid before Open().
  virtual const Scheme& scheme() const = 0;

  /// Physical operator name, e.g. "HashJoin".
  virtual const char* physical_name() const = 0;

  /// Child operators, in (left, right) order; empty for leaves.
  virtual std::vector<BatchIterator*> children() const { return {}; }

  /// Counters since the last Open().
  const ExecStats& stats() const { return stats_; }
  uint64_t produced() const { return stats_.emitted; }

  const ExprPtr& source_expr() const { return source_; }
  void set_source_expr(ExprPtr expr) { source_ = std::move(expr); }

  /// Wall-clock collection for this subtree; one clock pair per batch,
  /// not per tuple. Off by default; the counters are always maintained.
  /// Virtual so the exchange can forward into its worker pipelines.
  virtual void EnableTiming(bool on = true) {
    timing_ = on;
    for (BatchIterator* child : children()) child->EnableTiming(on);
  }

  /// Cooperative interrupt for this subtree, checked once per batch (the
  /// clock is consulted every check — per-batch frequency already
  /// amortizes it). Pass nullptr to detach.
  virtual void SetControl(ExecControl* control) {
    control_ = control;
    for (BatchIterator* child : children()) child->SetControl(control);
  }

  /// Pre-order visit of the operator tree rooted here.
  template <typename Visitor>
  void Visit(Visitor&& visitor, int depth = 0) {
    visitor(this, depth);
    for (BatchIterator* child : children()) {
      child->Visit(visitor, depth + 1);
    }
  }

 protected:
  virtual void OpenImpl() = 0;
  /// Fills `out` (already cleared) with at least one live row and returns
  /// true, or returns false when exhausted. Implementations loop
  /// internally over empty intermediate batches.
  virtual bool NextBatchImpl(TupleBatch* out) = 0;
  virtual void CloseImpl() = 0;

  ExecStats& mutable_stats() { return stats_; }

 private:
  static uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  ExecStats stats_;
  ExprPtr source_;
  ExecControl* control_ = nullptr;
  bool timing_ = false;
};

using BatchIteratorPtr = std::unique_ptr<BatchIterator>;

/// Runs a batch iterator to exhaustion and materializes the result:
/// `DrainChecked(iterator, nullptr)`, which cannot fail.
///
/// Blind to interruption: a cancel or deadline looks like ordinary
/// exhaustion, and the caller receives a silently truncated relation
/// unless it consults control->stopped() afterwards. Use DrainChecked
/// for pipelines with an attached ExecControl; DrainBatches remains fine
/// for control-free pipelines (tests, benchmarks, internal
/// materialization of blocking operators).
Relation DrainBatches(BatchIterator* iterator);

/// Status-carrying drain: opens, exhausts, and closes `iterator`, then
/// returns the materialized relation — unless `control` (may be null)
/// stopped the pipeline, in which case the truncated result is discarded
/// and the control's Cancelled/DeadlineExceeded status is returned
/// instead. lang::RunQuery drains through it; so do the shell, EXPLAIN
/// ANALYZE and the benchmarks, which read result rows.
Result<Relation> DrainChecked(BatchIterator* iterator, ExecControl* control);

/// DrainChecked's columnar form: the same rows, statuses and deadline
/// check, but each batch's live rows are gathered into the table's
/// columns (views with offsets and selections, columnar batches, and
/// row-slot batches through ColumnBatch::Column), so no row Tuple is
/// built. The server's QUERY verb drains this way and renders the
/// columns directly.
Result<ColumnTable> DrainColumns(BatchIterator* iterator,
                                 ExecControl* control);

/// Sums the counters of every operator in the tree except scans, whose
/// emissions are already charged to their consumers as reads — the same
/// accounting the materializing evaluator uses for a whole expression.
ExecStats CollectPipelineStats(BatchIterator* root);

}  // namespace fro

#endif  // FRO_EXEC_BATCH_ITERATOR_H_
