// Leapfrog triejoin (Veldhuizen, ICDT 2014): a worst-case-optimal
// multiway join over trie indexes. The optimizer plans the join-only
// cyclic core of a query graph as one kMultiwayJoin node (the
// freely-reorderable outerjoin shell stays binary, per the paper's
// core/shell split); this file executes that node.
//
// Execution model: join attributes are grouped into *variables*
// (equivalence classes of the predicate's column=column conjuncts), and
// the operator binds them one at a time in a fixed global order. Every
// operand holds a TrieIndex whose level order lists its variables in
// that global order; binding a variable leapfrogs the participating
// cursors to their next common key. Once every variable is bound, the
// matching row ranges are crossed (bag semantics) and the full join
// predicate is re-evaluated as a residual on each candidate — tries
// compare normalized keys, so the residual restores exact 3VL SQL
// semantics and covers non-equality conjuncts.
//
// LeapfrogCore does the search; the batch operator drains the operands,
// builds the tries, and drives it. A bare base-relation operand's trie
// comes from the relation's snapshot, built once per relation version;
// the operand is still drained, so the counters are those of a fresh
// build. Counter mapping: `probes` counts every cursor binary search
// (leapfrog seeks and steps alike), `predicate_evals` the residual
// evaluations, `left_reads` the rows drained from the operands while
// building tries.

#ifndef FRO_WCOJ_LEAPFROG_H_
#define FRO_WCOJ_LEAPFROG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "exec/join_build.h"
#include "relational/predicate.h"
#include "wcoj/trie_index.h"

namespace fro {

/// Execution recipe for one kMultiwayJoin node: the per-operand trie
/// level orders implied by the node's variable order, plus the residual
/// predicate.
struct MultiwaySpec {
  /// Global variable order; entry i is the representative attribute of
  /// variable i (from Expr::mj_var_order()).
  std::vector<AttrId> var_reps;
  /// Per operand: trie level attributes — for each variable the operand
  /// covers (in global order), the operand's member of that variable's
  /// attribute class.
  std::vector<std::vector<AttrId>> child_levels;
  /// Per operand: the global variable index of each trie level
  /// (strictly increasing).
  std::vector<std::vector<int>> child_level_vars;
  /// The node's full predicate, re-evaluated on every candidate.
  PredicatePtr residual;
};

/// Derives the execution spec from a kMultiwayJoin expression: unions
/// the top-level column=column equality conjuncts into attribute
/// classes, maps each variable of expr->mj_var_order() to its class,
/// and picks each operand's member attribute per variable. Conjuncts
/// not captured by the variable order (non-equalities, intra-operand
/// equalities, classes left out of the order) are enforced by the
/// residual, which is always the full predicate.
MultiwaySpec AnalyzeMultiwayJoin(const ExprPtr& expr);

/// The leapfrog search, independent of the operator driving it. Start()
/// binds it to a set of tries (one per operand, level orders matching
/// the spec); Next() produces emitted tuples one at a time — original
/// values, operand scheme order — exactly the bag the reference
/// evaluator's filtered cross product yields.
class LeapfrogCore {
 public:
  /// `tries[c]` must have level order spec.child_levels[c]. Binds the
  /// residual against `out_scheme` (the concatenated operand schemes).
  void Start(const MultiwaySpec& spec, std::vector<const TrieIndex*> tries,
             const Scheme& out_scheme);

  /// Writes the next result into *out; false when exhausted.
  bool Next(Tuple* out);

  /// Binary searches performed by all cursors since Start().
  uint64_t probes() const;
  /// Residual predicate evaluations since Start().
  uint64_t residual_evals() const { return evals_; }

 private:
  bool FindNextAssignment();
  bool OpenVar(size_t v);
  bool AdvanceVar(size_t v);
  bool Align(size_t v);
  void SetupEmission();
  void Materialize(Tuple* out);
  void AdvanceOdometer();

  std::vector<const TrieIndex*> tries_;
  std::vector<TrieCursor> cursors_;
  size_t num_vars_ = 0;
  std::vector<std::vector<size_t>> var_children_;  // operands per variable
  std::vector<size_t> child_num_levels_;
  std::vector<size_t> offset_;  // operand start in the output tuple
  std::vector<size_t> arity_;
  size_t total_arity_ = 0;

  bool has_residual_ = false;
  BoundPredicate residual_;

  // Search / emission state.
  bool started_ = false;
  bool done_ = false;
  bool emitting_ = false;
  bool odo_overflow_ = false;
  std::vector<size_t> range_lo_, range_hi_, idx_;

  uint64_t evals_ = 0;
};

/// Leapfrog triejoin operator. Open() drains every child pipeline, takes
/// one trie per operand (the snapshot's for a bare base relation, else
/// one over the drained rows), and runs the core; the children may be
/// arbitrary subplans (scans, filters, even outerjoin shells under the
/// fuzzer's forced-multiway mode).
class BatchLeapfrogIterator : public BatchIterator {
 public:
  BatchLeapfrogIterator(MultiwaySpec spec,
                        std::vector<BatchIteratorPtr> children,
                        size_t batch_capacity);

  const Scheme& scheme() const override { return out_scheme_; }
  const char* physical_name() const override { return "LeapfrogTriejoin"; }
  std::vector<BatchIterator*> children() const override;

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  void SyncStats();

  MultiwaySpec spec_;
  std::vector<BatchIteratorPtr> children_;
  Scheme out_scheme_;
  size_t batch_capacity_;
  std::vector<DrainedRows> operands_;  // the rows each trie indexes
  std::vector<std::shared_ptr<const TrieIndex>> tries_;
  LeapfrogCore core_;
  uint64_t build_reads_ = 0;
};

/// Builds the operator for a kMultiwayJoin node whose child subplans
/// have already been built (in mj_children() order).
BatchIteratorPtr MakeBatchLeapfrogIterator(
    const ExprPtr& expr, std::vector<BatchIteratorPtr> children,
    size_t batch_capacity);

}  // namespace fro

#endif  // FRO_WCOJ_LEAPFROG_H_
