// Bottom-up evaluation of expression trees (the paper's eval(Q)).

#ifndef FRO_ALGEBRA_EVAL_H_
#define FRO_ALGEBRA_EVAL_H_

#include "algebra/expr.h"
#include "relational/database.h"
#include "relational/exec_stats.h"
#include "relational/ops.h"

namespace fro {

struct EvalOptions {
  /// Kernel selection for all join-like operators.
  JoinAlgo algo = JoinAlgo::kAuto;
  /// Persistent indexes, the paper's "assume that these keys have
  /// indexes": when a join-like operator's inner input is a base
  /// relation with equi-keys, the hash kernel probes that relation
  /// snapshot's HashIndex on them (SnapshotHashIndex: built on first use,
  /// kept until the relation mutates) instead of building an ad-hoc
  /// table. The counters are unchanged either way. Off by default, so
  /// the evaluator stays a self-contained per-query reference.
  bool snapshot_indexes = false;
};

struct EvalStats {
  /// Counters summed over every operator of the tree (the same per-kernel
  /// counters the pipelined executor keeps per operator).
  ExecStats totals;
  /// Tuples retrieved from *ground* relations only — the accounting used by
  /// Example 1 of the paper (intermediate results live in memory and are
  /// not "retrieved").
  uint64_t base_tuples_read = 0;
  /// Sum of intermediate (non-root, non-leaf) result cardinalities: the
  /// classic C_out cost.
  uint64_t intermediate_tuples = 0;
};

/// Evaluates `expr` against `db`. All operator semantics follow the paper:
/// three-valued predicate logic, left/right symmetric forms, padding on
/// union. Deterministic for a fixed database.
Relation Eval(const ExprPtr& expr, const Database& db,
              const EvalOptions& options = EvalOptions(),
              EvalStats* stats = nullptr);

}  // namespace fro

#endif  // FRO_ALGEBRA_EVAL_H_
