// Plan statistics: a snapshot of an executed operator tree (names,
// source expressions, counters) detached from the iterators that
// produced it. EXPLAIN ANALYZE rendering, the server's metrics rollup,
// and cardinality feedback consume this view; a morsel-parallel
// exchange's workers are merged node-wise into it, so consumers see one
// plan shape whatever the worker count.

#ifndef FRO_EXEC_STATS_VIEW_H_
#define FRO_EXEC_STATS_VIEW_H_

#include <string>
#include <vector>

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "relational/exec_stats.h"

namespace fro {

/// One operator of an executed plan, with its counters at snapshot time.
struct PlanOpStats {
  std::string physical_name;
  /// The expression node the operator implements; null for hand-assembled
  /// pipelines.
  ExprPtr source_expr;
  ExecStats stats;
  /// True for the morsel exchange: it forwards rows without doing
  /// relational work, so pipeline totals skip it (its merged spine
  /// appears as its only child and is accounted normally).
  bool passthrough = false;
  std::vector<PlanOpStats> children;

  bool is_source() const { return children.empty(); }
};

/// Snapshots an executed pipeline. A BatchExchangeIterator contributes
/// a passthrough node whose child is its spine merged across workers.
PlanOpStats SnapshotPlanStats(BatchIterator* root);

/// Sums the counters of every operator except sources (scans, whose
/// emissions are charged to their consumers as reads) and passthrough
/// nodes — the same accounting as CollectPipelineStats, over a
/// snapshot.
ExecStats SumPipelineStats(const PlanOpStats& root);

/// Tuples retrieved from ground relations — Example 1's accounting: each
/// operator's reads from a child that implements a leaf expression.
uint64_t BaseTuplesRead(const PlanOpStats& root);

/// Pre-order visit: fn(const PlanOpStats&, int depth). Passthrough nodes
/// are visited like any other; callers that do not want them can test
/// `node.passthrough`.
template <typename Fn>
void ForEachOp(const PlanOpStats& node, Fn&& fn, int depth = 0) {
  fn(node, depth);
  for (const PlanOpStats& child : node.children) {
    ForEachOp(child, fn, depth + 1);
  }
}

}  // namespace fro

#endif  // FRO_EXEC_STATS_VIEW_H_
