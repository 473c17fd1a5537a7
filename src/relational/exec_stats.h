// Execution counters used to reproduce the paper's cost arithmetic.
//
// Example 1 of the paper argues in "tuples retrieved": the naive order of
// `R1 - (R2 -> R3)` touches 2*10^7 + 1 tuples while the reordered
// `(R1 - R2) -> R3` touches 3. One counter struct serves every layer with
// exactly that accounting: the kernels in relational/ops.h fill it per
// invocation, the materializing evaluator (algebra/eval.h) sums it across
// a tree, and the batch executor (exec/batch_iterator.h) keeps one per
// operator. Tests assert that executor and evaluator produce identical
// counters operator by operator.

#ifndef FRO_RELATIONAL_EXEC_STATS_H_
#define FRO_RELATIONAL_EXEC_STATS_H_

#include <cstdint>
#include <string>

namespace fro {

/// Per-operator execution counters. `left_reads` / `right_reads` separate
/// the two inputs so Example 1's base-table retrievals can be attributed
/// (every tuple read from an input and every index probe result counts as
/// a retrieval). The `*_ns` wall-clock fields are filled only by the
/// pipelined executor, and only when timing collection is enabled there;
/// kernels leave them zero.
struct ExecStats {
  uint64_t left_reads = 0;   // tuples fetched from the left input
  uint64_t right_reads = 0;  // tuples fetched from the right input
  uint64_t emitted = 0;      // tuples in the output
  uint64_t probes = 0;       // hash/index probe operations
  uint64_t predicate_evals = 0;
  uint64_t open_ns = 0;  // wall-clock spent in Open()
  uint64_t next_ns = 0;  // wall-clock spent across all Next() calls

  /// Tuples fetched from either input (the quantity Example 1 counts when
  /// the inputs are ground relations).
  uint64_t tuples_read() const { return left_reads + right_reads; }

  ExecStats& operator+=(const ExecStats& other) {
    left_reads += other.left_reads;
    right_reads += other.right_reads;
    emitted += other.emitted;
    probes += other.probes;
    predicate_evals += other.predicate_evals;
    open_ns += other.open_ns;
    next_ns += other.next_ns;
    return *this;
  }

  std::string ToString() const {
    return "read=" + std::to_string(tuples_read()) +
           " emitted=" + std::to_string(emitted) +
           " probes=" + std::to_string(probes) +
           " evals=" + std::to_string(predicate_evals);
  }
};

/// Historical name for the same counters, kept for the kernel signatures.
using KernelStats = ExecStats;

}  // namespace fro

#endif  // FRO_RELATIONAL_EXEC_STATS_H_
