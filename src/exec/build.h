// Compiling expression trees into batch pipelines: the one plan builder.
// Join-like operators use the hash strategy when the predicate has
// equi-key conjuncts and the join algorithm permits, block nested loop
// otherwise; symmetric forms (`<-`, `<|`, `-<`) are realized by swapping
// the operands. With more than one thread, every parallelizable region
// becomes a morsel-driven exchange (exec/morsel.h) and the rest of the
// plan is built from the same serial operators.

#ifndef FRO_EXEC_BUILD_H_
#define FRO_EXEC_BUILD_H_

#include <cstddef>

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "relational/database.h"
#include "relational/ops.h"

namespace fro {

/// Knobs for the plan builder. The defaults build the serial plan; with
/// `threads > 1` they parallelize a 200k-row scan into ~200 morsels.
/// Tests and the fuzzer shrink `morsel_rows`/`batch_capacity` to force
/// cross-morsel and cross-worker paths (split batches, the GOJ pad
/// merge) on tiny relations.
struct ParallelOptions {
  /// Worker pipelines per exchange; <= 1 builds the serial plan.
  int threads = 1;
  /// Rows per morsel claimed from the shared queue.
  size_t morsel_rows = 1024;
  /// TupleBatch capacity of every operator (and of the exchange's
  /// worker pipelines and merged stream).
  size_t batch_capacity = TupleBatch::kDefaultCapacity;
  /// Join strategy constraint.
  JoinAlgo algo = JoinAlgo::kAuto;
};

/// The equi-keys a join-like operator over `left` and `right` probes on:
/// the predicate's column equalities across the two schemes, or none when
/// `algo` forces nested loops. With keys the hash join (or keyed GOJ) is
/// built, without them the nested-loop one.
EquiKeys JoinKeys(const PredicatePtr& pred, const Scheme& left,
                  const Scheme& right, JoinAlgo algo);

/// Builds a pipelined physical plan for `expr`. Parallelizable regions
/// compile to exchanges over `options.threads` morsel-driven workers;
/// everything else (unions, deduplicating projections, multiway joins)
/// to the serial operators consuming the merged streams. With
/// `options.threads <= 1` the plan is entirely serial. The database must
/// outlive the returned iterator.
BatchIteratorPtr BuildParallelBatchIterator(const ExprPtr& expr,
                                            const Database& db,
                                            const ParallelOptions& options);

/// The serial plan: BuildParallelBatchIterator with one thread, the given
/// join algorithm, and TupleBatches of `batch_capacity` tuples.
BatchIteratorPtr BuildBatchIterator(
    const ExprPtr& expr, const Database& db, JoinAlgo algo = JoinAlgo::kAuto,
    size_t batch_capacity = TupleBatch::kDefaultCapacity);

/// Convenience: build a serial plan, drain it, return the result.
Relation ExecuteBatched(const ExprPtr& expr, const Database& db,
                        JoinAlgo algo = JoinAlgo::kAuto,
                        size_t batch_capacity = TupleBatch::kDefaultCapacity);

}  // namespace fro

#endif  // FRO_EXEC_BUILD_H_
