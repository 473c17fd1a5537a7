// Morsel-driven intra-query parallelism for the batch engine.
//
// A parallelizable plan region — its "spine": the probe/preserved side of
// a chain of filters, projections, and join-likes down to one base
// relation — is compiled into N identical worker pipelines. Each worker
// pulls fixed-size row ranges ("morsels") of the base relation from a
// shared atomic work queue, so the scan self-balances; a
// BatchExchangeIterator gathers the workers' batches through a bounded
// queue into one merged stream that serial consumers (union,
// duplicate-eliminating projection, the rest of the plan) drain like any
// other batch operator.
//
// Workers run the serial operators (exec/batch_operators.h); there is no
// second operator set. What parallelism shares is the build side: the
// exchange drains each spine join's build subtree once, serially, into a
// JoinBuildSide (exec/join_build.h), and every worker's hash, nested-loop
// or GOJ operator probes that one table read-only. The table holds the
// rows in the serial plan's build order, so every probe row meets the
// same candidates in the same order as in the serial plan.
//
// The paper-specific twist is outerjoin padding. Left-outer/anti padding
// is per probe row, hence worker-local and exactly-once. GOJ padding
// (eq. 14) is not: it pads per *distinct* S-projection of the preserved
// operand absent from pi[S] of the join, a property no single worker can
// decide. Each worker's GOJ folds its projection sets into the
// exchange's GojPadMerge as it finishes, and the last one to finish emits
// the set-difference pads exactly once — the serial GOJ's own code path,
// with N participants instead of one.
//
// Counter parity: each probe row is processed by exactly one worker, by
// the serial operator's code against the serial candidate order, so
// summing a counter across workers (CollectWorkerStats / SnapshotMerged)
// reproduces the serial totals — EXPLAIN ANALYZE and fro_fuzz's
// stats-parity checks hold unchanged. The plan builder (exec/build.h)
// places exchanges only when asked for more than one thread; otherwise
// the plan is serial.

#ifndef FRO_EXEC_MORSEL_H_
#define FRO_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "exec/build.h"
#include "exec/stats_view.h"
#include "relational/column.h"
#include "relational/database.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace fro {

/// Work queue over the row range [0, total_rows): workers claim disjoint
/// morsels with one relaxed fetch_add until the range is exhausted.
class MorselQueue {
 public:
  MorselQueue(size_t total_rows, size_t morsel_rows);

  /// Re-arms the queue for a rescan. Call only while no worker claims.
  void Reset() { next_.store(0, std::memory_order_relaxed); }

  /// Claims the next morsel as [*begin, *end); false when exhausted.
  bool Claim(size_t* begin, size_t* end);

  size_t total_rows() const { return total_rows_; }
  size_t morsel_rows() const { return morsel_rows_; }

 private:
  size_t total_rows_;
  size_t morsel_rows_;
  std::atomic<size_t> next_{0};
};

/// Base-relation scan over morsels claimed from a shared queue. Each
/// claimed morsel streams out as zero-copy views of the relation's row
/// storage, at most a batch-capacity of rows at a time.
class MorselScanIterator : public BatchIterator {
 public:
  /// Every worker's scan shares the relation's snapshot (its column
  /// mirror is internally synchronized), giving downstream vectorized
  /// operators transpose-free column access.
  MorselScanIterator(std::shared_ptr<const RelationSnapshot> snapshot,
                     std::shared_ptr<MorselQueue> queue);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "MorselScan"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  std::shared_ptr<const RelationSnapshot> snapshot_;
  std::shared_ptr<MorselQueue> queue_;
  size_t begin_ = 0;  // unconsumed remainder of the claimed morsel
  size_t end_ = 0;
};

struct ExchangeState;  // morsel.cc: spine steps, shared join inputs, workers

/// Gathers N worker pipelines into one merged batch stream.
///
/// Open() prepares the shared join inputs (drains and indexes each build
/// side once), resets the morsel queue and the GOJ pad merges, and
/// spawns one thread per worker; NextBatch() hands out rows from a
/// bounded producer/consumer queue; Close() wakes and joins the workers.
/// The workers and shared build subtrees are internal — children() stays
/// empty — so generic tree walks see a leaf; stats rollups instead splice
/// in SnapshotMerged(), a node-wise cross-worker merge of the spine with
/// each build subtree's snapshot attached as its join's second child. The
/// exchange node itself is stats-passthrough.
class BatchExchangeIterator : public BatchIterator {
 public:
  BatchExchangeIterator(std::unique_ptr<ExchangeState> state,
                        ParallelOptions options);
  ~BatchExchangeIterator() override;

  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Exchange"; }
  void EnableTiming(bool on = true) override;
  void SetControl(ExecControl* control) override;

  int workers() const;

  /// Pipeline totals of everything behind the exchange: worker operator
  /// counters plus the shared build subtrees' totals, each counted once.
  ExecStats CollectWorkerStats() const;

  /// The spine merged node-wise across workers (counters summed), with
  /// each shared build subtree spliced in as its join's right child.
  PlanOpStats SnapshotMerged() const;

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  void WorkerMain(size_t worker_index);

  std::unique_ptr<ExchangeState> state_;
  ParallelOptions options_;
  size_t max_queued_ = 1;

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::vector<Tuple>> ready_;
  size_t producers_live_ = 0;
  bool closed_ = false;
  std::vector<std::thread> threads_;

  /// Batch currently being replayed to the consumer.
  std::vector<Tuple> pending_;
  size_t pending_pos_ = 0;
};

/// True when `expr` has a parallelizable spine: a chain of restricts,
/// non-deduplicating projections, GOJs, and join-likes whose
/// preserved/kept operand recursively bottoms out at a base relation.
bool MorselParallelizable(const ExprPtr& expr);

/// Plans the spine of a MorselParallelizable expression and assembles
/// its exchange over `options.threads` worker pipelines. The build sides
/// of spine joins are compiled by the plan builder as serial plans with
/// the same join algorithm and batch capacity. Called by the plan
/// builder; use BuildParallelBatchIterator.
BatchIteratorPtr MakeExchange(const ExprPtr& expr, const Database& db,
                              const ParallelOptions& options);

}  // namespace fro

#endif  // FRO_EXEC_MORSEL_H_
