// Exact, machine-independent measures for the planner-claim tests (the
// leapfrog triangle, the Yannakakis chains, the re-planned mispriced
// chain). The counters read only the executor's ExecStats, so the same
// plan over the same data gives the same numbers on any host.

#ifndef FRO_TESTS_PLAN_WORK_H_
#define FRO_TESTS_PLAN_WORK_H_

#include <algorithm>
#include <cstdint>

#include "exec/build.h"
#include "exec/stats_view.h"
#include "optimizer/explain.h"

namespace fro {

/// Counts kSemijoin nodes reachable in a plan (a shared subtree counts
/// once per path, so this is nonzero iff the plan has a reduction).
inline int CountSemijoins(const ExprPtr& expr) {
  if (expr == nullptr || expr->kind() == OpKind::kLeaf) return 0;
  int n = expr->kind() == OpKind::kSemijoin ? 1 : 0;
  if (expr->is_multiway()) {
    for (const ExprPtr& child : expr->mj_children()) {
      n += CountSemijoins(child);
    }
    return n;
  }
  return n + CountSemijoins(expr->left()) + CountSemijoins(expr->right());
}

/// Rows across every relation of `db`: a query's input size.
inline uint64_t TotalRows(const Database& db) {
  uint64_t rows = 0;
  for (RelId r = 0; r < db.num_relations(); ++r) {
    rows += db.relation(r).NumRows();
  }
  return rows;
}

/// Work of one execution: tuples read + probes + predicate evaluations
/// + tuples emitted, summed over every non-scan operator.
inline uint64_t PlanWork(const ExprPtr& plan, const Database& db) {
  const ExecStats totals = ExplainAnalyze(plan, db).totals;
  return totals.tuples_read() + totals.probes + totals.predicate_evals +
         totals.emitted;
}

/// The largest intermediate result: the most rows any operator other
/// than the root (the query's output) and the scans (the inputs) emits.
inline uint64_t LargestIntermediate(const ExprPtr& plan,
                                    const Database& db) {
  BatchIteratorPtr root = BuildBatchIterator(plan, db);
  DrainBatches(root.get());
  uint64_t largest = 0;
  ForEachOp(SnapshotPlanStats(root.get()),
            [&](const PlanOpStats& node, int depth) {
              if (depth > 0 && !node.is_source()) {
                largest = std::max(largest, node.stats.emitted);
              }
            });
  return largest;
}

}  // namespace fro

#endif  // FRO_TESTS_PLAN_WORK_H_
