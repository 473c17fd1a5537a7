#include "optimizer/cardinality.h"

#include <algorithm>

#include "common/check.h"

namespace fro {

namespace {

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

}  // namespace

const AttrStats& CardinalityEstimator::FetchStats(AttrId attr) const {
  static const AttrStats kDefault;
  const AttrStats* found = &kDefault;
  const Catalog& catalog = db_.catalog();
  if (attr < catalog.num_attrs() &&
      catalog.AttrRelation(attr) < db_.num_relations()) {
    const RelId rel = catalog.AttrRelation(attr);
    std::shared_ptr<const RelationSnapshot> snapshot = db_.Snapshot(rel);
    const RelationStats& stats = snapshot->stats();
    const Scheme& scheme = snapshot->relation().scheme();
    for (size_t c = 0; c < scheme.size(); ++c) {
      attr_stats_.emplace(scheme.col(c), &stats[c]);
      if (scheme.col(c) == attr) found = &stats[c];
    }
    held_snapshots_.push_back(std::move(snapshot));
  }
  attr_stats_.emplace(attr, found);
  return *found;
}

double CardinalityEstimator::BaseRows(RelId rel) const {
  return static_cast<double>(db_.relation(rel).NumRows());
}

const AttrStats& CardinalityEstimator::StatsOf(AttrId attr) const {
  auto it = attr_stats_.find(attr);
  return it == attr_stats_.end() ? FetchStats(attr) : *it->second;
}

double CardinalityEstimator::Selectivity(const PredicatePtr& pred) const {
  if (pred == nullptr) return 1.0;
  switch (pred->kind()) {
    case Predicate::Kind::kConst:
      return pred->const_value() ? 1.0 : 0.0;
    case Predicate::Kind::kCmp: {
      const Operand& a = pred->lhs();
      const Operand& b = pred->rhs();
      if (pred->cmp_op() == CmpOp::kEq) {
        if (a.is_column() && b.is_column()) {
          return 1.0 / std::max(StatsOf(a.attr()).distinct,
                                StatsOf(b.attr()).distinct);
        }
        if (a.is_column()) return 1.0 / StatsOf(a.attr()).distinct;
        if (b.is_column()) return 1.0 / StatsOf(b.attr()).distinct;
        return 0.5;
      }
      if (pred->cmp_op() == CmpOp::kNe) {
        // Complement of the equality estimate.
        PredicatePtr eq = Predicate::Cmp(CmpOp::kEq, a, b);
        return Clamp01(1.0 - Selectivity(eq));
      }
      // Range comparison: use the column's histogram when one side is a
      // numeric literal.
      const bool a_col = a.is_column();
      const bool b_col = b.is_column();
      if (a_col != b_col) {
        const Operand& col = a_col ? a : b;
        const Operand& lit = a_col ? b : a;
        if (!lit.literal().is_null() &&
            (lit.literal().kind() == Value::Kind::kInt ||
             lit.literal().kind() == Value::Kind::kDouble)) {
          const Histogram& h = StatsOf(col.attr()).histogram;
          if (h.populated) {
            const double x = lit.literal().NumericValue();
            double below = h.FractionBelow(x);
            // Normalize the operator to "col OP lit".
            CmpOp op = pred->cmp_op();
            if (!a_col) {
              // lit OP col  ==  col (flipped OP) lit.
              switch (op) {
                case CmpOp::kLt:
                  op = CmpOp::kGt;
                  break;
                case CmpOp::kLe:
                  op = CmpOp::kGe;
                  break;
                case CmpOp::kGt:
                  op = CmpOp::kLt;
                  break;
                case CmpOp::kGe:
                  op = CmpOp::kLe;
                  break;
                default:
                  break;
              }
            }
            const double eq = 1.0 / StatsOf(col.attr()).distinct;
            const double non_null =
                1.0 - StatsOf(col.attr()).null_fraction;
            switch (op) {
              case CmpOp::kLt:
                return Clamp01(below) * non_null;
              case CmpOp::kLe:
                return Clamp01(below + eq) * non_null;
              case CmpOp::kGt:
                return Clamp01(1.0 - below - eq) * non_null;
              case CmpOp::kGe:
                return Clamp01(1.0 - below) * non_null;
              default:
                break;
            }
          }
        }
      }
      return kDefaultRangeSelectivity;
    }
    case Predicate::Kind::kAnd: {
      double s = 1.0;
      for (const PredicatePtr& child : pred->children()) {
        s *= Selectivity(child);
      }
      return s;
    }
    case Predicate::Kind::kOr: {
      double not_any = 1.0;
      for (const PredicatePtr& child : pred->children()) {
        not_any *= 1.0 - Selectivity(child);
      }
      return Clamp01(1.0 - not_any);
    }
    case Predicate::Kind::kNot:
      return Clamp01(1.0 - Selectivity(pred->children()[0]));
    case Predicate::Kind::kIsNull: {
      const Operand& op = pred->operand();
      if (!op.is_column()) return op.literal().is_null() ? 1.0 : 0.0;
      return StatsOf(op.attr()).null_fraction;
    }
  }
  return 0.5;
}

double CardinalityEstimator::JoinLikeCard(OpKind kind, bool preserves_left,
                                          const PredicatePtr& pred,
                                          double left_rows,
                                          double right_rows) const {
  const double sel = Selectivity(pred);
  const double join_rows = left_rows * right_rows * sel;
  switch (kind) {
    case OpKind::kJoin:
      return join_rows;
    case OpKind::kOuterJoin:
    case OpKind::kGoj: {
      const double preserved = preserves_left ? left_rows : right_rows;
      const double other = preserves_left ? right_rows : left_rows;
      // Probability a preserved tuple finds no partner, under
      // independence.
      const double p_unmatched = Clamp01(1.0 - sel * other);
      return join_rows + preserved * p_unmatched;
    }
    case OpKind::kAntijoin: {
      const double kept = preserves_left ? left_rows : right_rows;
      const double other = preserves_left ? right_rows : left_rows;
      return kept * Clamp01(1.0 - sel * other);
    }
    case OpKind::kSemijoin: {
      const double kept = preserves_left ? left_rows : right_rows;
      const double other = preserves_left ? right_rows : left_rows;
      return kept * Clamp01(sel * other);
    }
    default:
      FRO_CHECK(false) << "JoinLikeCard on " << OpKindName(kind);
  }
  return 0;
}

double CardinalityEstimator::MatchFraction(const PredicatePtr& pred,
                                           const AttrSet& kept_attrs,
                                           double other_rows) const {
  if (pred == nullptr) return other_rows > 0 ? 1.0 : 0.0;
  if (pred->kind() == Predicate::Kind::kAnd) {
    double fraction = 1.0;
    for (const PredicatePtr& child : pred->children()) {
      fraction *= MatchFraction(child, kept_attrs, other_rows);
    }
    return Clamp01(fraction);
  }
  if (pred->kind() == Predicate::Kind::kCmp &&
      pred->cmp_op() == CmpOp::kEq && pred->lhs().is_column() &&
      pred->rhs().is_column()) {
    const AttrId lhs = pred->lhs().attr();
    const AttrId rhs = pred->rhs().attr();
    const bool lhs_kept = kept_attrs.Contains(lhs);
    if (lhs_kept != kept_attrs.Contains(rhs)) {
      const AttrId kept_attr = lhs_kept ? lhs : rhs;
      const AttrId other_attr = lhs_kept ? rhs : lhs;
      const AttrStats& kept_stats = StatsOf(kept_attr);
      const double d_kept = kept_stats.distinct;
      const double d_other = StatsOf(other_attr).distinct;
      // Containment of value sets: the min(d_kept, d_other) shared
      // values cover that fraction of the kept side's distinct values;
      // nulls never match.
      return Clamp01(std::min(d_kept, d_other) / d_kept) *
             (1.0 - kept_stats.null_fraction);
    }
  }
  return Clamp01(Selectivity(pred) * other_rows);
}

double CardinalityEstimator::Estimate(const ExprPtr& expr) const {
  // Runtime feedback wins over every static rule: a measured cardinality
  // for this exact subexpression is ground truth (modulo decay), and the
  // estimates of enclosing operators compound from it.
  if (feedback_ != nullptr) {
    if (const double* rows = feedback_->Lookup(expr->hash())) return *rows;
  }
  switch (expr->kind()) {
    case OpKind::kLeaf:
      return BaseRows(expr->rel());
    case OpKind::kRestrict:
      return Estimate(expr->left()) * Selectivity(expr->pred());
    case OpKind::kProject: {
      double input = Estimate(expr->left());
      if (!expr->project_dedup()) return input;
      double distinct = 1.0;
      for (AttrId attr : expr->project_cols()) {
        distinct *= StatsOf(attr).distinct;
      }
      return std::min(input, distinct);
    }
    case OpKind::kUnion:
      return Estimate(expr->left()) + Estimate(expr->right());
    case OpKind::kMultiwayJoin: {
      // Filtered cross product of the operands, same independence
      // assumptions as the binary estimate it replaces.
      double rows = Selectivity(expr->pred());
      for (const ExprPtr& child : expr->mj_children()) {
        rows *= Estimate(child);
      }
      return rows;
    }
    case OpKind::kSemijoin:
    case OpKind::kAntijoin: {
      const bool kept_left = expr->preserves_left();
      const ExprPtr& kept = kept_left ? expr->left() : expr->right();
      const ExprPtr& other = kept_left ? expr->right() : expr->left();
      const double kept_rows = Estimate(kept);
      const double match =
          MatchFraction(expr->pred(), kept->attrs(), Estimate(other));
      return expr->kind() == OpKind::kSemijoin ? kept_rows * match
                                               : kept_rows * (1.0 - match);
    }
    default:
      return JoinLikeCard(expr->kind(), expr->preserves_left(), expr->pred(),
                          Estimate(expr->left()), Estimate(expr->right()));
  }
}

}  // namespace fro
