// Cardinality estimation in the System R tradition: per-attribute
// distinct-value and null-fraction statistics (relational/stats.h, cached
// by the database per relation version), independence-assumption
// selectivities, and recursive cardinality estimates for every operator
// the algebra supports.

#ifndef FRO_OPTIMIZER_CARDINALITY_H_
#define FRO_OPTIMIZER_CARDINALITY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/expr.h"
#include "optimizer/feedback.h"
#include "relational/database.h"
#include "relational/stats.h"

namespace fro {

class CardinalityEstimator {
 public:
  /// Reads no rows: the statistics of a relation are fetched from its
  /// Database::Snapshot the first time one of its attributes is asked
  /// about, and held for the estimator's lifetime. The database
  /// must outlive the estimator.
  explicit CardinalityEstimator(const Database& db) : db_(db) {}

  double BaseRows(RelId rel) const;
  const AttrStats& StatsOf(AttrId attr) const;

  /// Attaches runtime cardinality feedback (optimizer/feedback.h): any
  /// subtree whose structural hash has a correction is estimated as its
  /// measured row count, shadowing the static model entirely — the
  /// override has precedence over every rule below it, including exact
  /// leaf counts. Not owned; must outlive the estimator (or be detached
  /// with null). Null disables feedback.
  void set_feedback(const CardinalityFeedback* feedback) {
    feedback_ = feedback;
  }
  const CardinalityFeedback* feedback() const { return feedback_; }

  /// True when Estimate(expr) is served from feedback rather than the
  /// static model — EXPLAIN ANALYZE's "feedback-corrected" marker.
  bool IsCorrected(const ExprPtr& expr) const {
    return feedback_ != nullptr && expr != nullptr &&
           feedback_->Lookup(expr->hash()) != nullptr;
  }

  /// Estimated fraction of candidate tuples satisfying `pred` (in [0, 1]).
  double Selectivity(const PredicatePtr& pred) const;

  /// Estimated output cardinality of `expr`.
  double Estimate(const ExprPtr& expr) const;

  /// Cardinality of a join-like operator given operand estimates; used by
  /// the DP optimizer to avoid re-walking subtrees.
  double JoinLikeCard(OpKind kind, bool preserves_left,
                      const PredicatePtr& pred, double left_rows,
                      double right_rows) const;

 private:
  /// Estimated fraction of kept-side tuples with at least one partner
  /// across `pred`, used for semijoin/antijoin cardinalities. Column
  /// equalities use the containment-of-value-sets assumption — the
  /// smaller value set is contained in the larger, so
  /// min(d_kept, d_other) / d_kept of the kept rows survive — which,
  /// unlike kept * sel * other_rows, stays small when the other side
  /// repeats few values many times (the skew a semijoin reduction
  /// exploits). Other conjuncts fall back to the independence bound.
  double MatchFraction(const PredicatePtr& pred, const AttrSet& kept_attrs,
                       double other_rows) const;

  /// Fetches the statistics of `attr`'s relation and memoizes every one
  /// of its attributes; StatsOf's slow path.
  const AttrStats& FetchStats(AttrId attr) const;

  const Database& db_;
  /// Memo of StatsOf, filled a relation at a time. Single-threaded like
  /// the estimator itself (one per Optimize call).
  mutable std::unordered_map<AttrId, const AttrStats*> attr_stats_;
  /// The snapshots whose statistics attr_stats_ points into.
  mutable std::vector<std::shared_ptr<const RelationSnapshot>>
      held_snapshots_;
  const CardinalityFeedback* feedback_ = nullptr;
};

}  // namespace fro

#endif  // FRO_OPTIMIZER_CARDINALITY_H_
