// Physical operator kernels: join, outerjoin, antijoin, semijoin,
// generalized outerjoin (paper eq. 14), restrict, project, cross product,
// and padded bag union.
//
// Every join-like kernel is left-anchored: LeftOuterJoin preserves the left
// operand, Antijoin/Semijoin filter the left operand. The algebra layer
// realizes the paper's "symmetric forms" (<-, left-antijoin, ...) by
// swapping operands before calling the kernel; relations compare
// attribute-aligned, so operand order never affects results.
//
// All kernels agree exactly on semantics; the algorithm choice (`JoinAlgo`)
// only changes cost counters. The hash path is used automatically when the
// predicate contains at least one column=column equality conjunct across
// the operands; the full predicate is always re-checked on candidates, so
// hash pruning is purely an optimization.

#ifndef FRO_RELATIONAL_OPS_H_
#define FRO_RELATIONAL_OPS_H_

#include <cstdint>
#include <vector>

#include "relational/exec_stats.h"
#include "relational/index.h"
#include "relational/predicate.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace fro {

enum class JoinAlgo : uint8_t {
  kNestedLoop,
  kHash,
  /// Hash when an equi-conjunct exists, nested loop otherwise.
  kAuto,
};

/// Equality conjuncts `left_col = right_col` extracted from a predicate,
/// plus whether any exist (the hash path's applicability).
struct EquiKeys {
  std::vector<AttrId> left;
  std::vector<AttrId> right;
  bool Usable() const { return !left.empty(); }
};

/// Scans top-level conjuncts of `pred` for column=column equalities with
/// one side in each scheme.
EquiKeys ExtractEquiKeys(const PredicatePtr& pred, const Scheme& left,
                         const Scheme& right);

/// Normalizes a hash-key value so structural hashing agrees with SQL
/// equality across int/double (SqlEq(1, 1.0) is true).
Value NormalizeHashKeyValue(const Value& v);

/// JN[p](L, R): concatenations of matching tuples (paper Section 1.2).
/// With `prebuilt_right_index` (an index over R on the predicate's
/// equi-key columns in ExtractEquiKeys order, e.g. a snapshot's
/// SnapshotHashIndex), the hash path probes it instead of
/// building an ad-hoc table; the index's row numbering must match R.
Relation Join(const Relation& left, const Relation& right,
              const PredicatePtr& pred, JoinAlgo algo, KernelStats* stats,
              const HashIndex* prebuilt_right_index = nullptr);

/// OJ[p](L, R): the join plus unmatched left tuples padded with nulls on
/// R's attributes. L is the preserved relation.
Relation LeftOuterJoin(const Relation& left, const Relation& right,
                       const PredicatePtr& pred, JoinAlgo algo,
                       KernelStats* stats,
                       const HashIndex* prebuilt_right_index = nullptr);

/// AJ[p](L, R): left tuples with no match in R (output scheme = L's).
Relation Antijoin(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, JoinAlgo algo,
                  KernelStats* stats,
                  const HashIndex* prebuilt_right_index = nullptr);

/// SJ[p](L, R): left tuples with at least one match (output scheme = L's).
Relation Semijoin(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, JoinAlgo algo,
                  KernelStats* stats,
                  const HashIndex* prebuilt_right_index = nullptr);

/// GOJ[S, p](L, R), paper eq. 14: the join, plus — for each *distinct*
/// S-projection of L that never appears in the join — one tuple holding
/// that projection padded with nulls on all other attributes. `subset` must
/// be contained in L's scheme.
Relation GeneralizedOuterJoin(const Relation& left, const Relation& right,
                              const PredicatePtr& pred, const AttrSet& subset,
                              JoinAlgo algo, KernelStats* stats);

/// Tuples of `input` satisfying `pred`.
Relation Restrict(const Relation& input, const PredicatePtr& pred,
                  KernelStats* stats);

/// Projection onto `cols` (in the given order); removes duplicates when
/// `dedup` is set (the paper's π).
Relation Project(const Relation& input, const std::vector<AttrId>& cols,
                 bool dedup, KernelStats* stats);

/// All concatenations (no predicate).
Relation CrossProduct(const Relation& left, const Relation& right,
                      KernelStats* stats);

}  // namespace fro

#endif  // FRO_RELATIONAL_OPS_H_
