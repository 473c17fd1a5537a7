#include "algebra/eval.h"

#include "common/check.h"
#include "relational/index.h"

namespace fro {

namespace {

class Evaluator {
 public:
  Evaluator(const Database& db, const EvalOptions& options, EvalStats* stats)
      : db_(db), options_(options), stats_(stats) {}

  Relation EvalNode(const ExprPtr& expr, bool is_root) {
    FRO_CHECK(expr != nullptr);
    switch (expr->kind()) {
      case OpKind::kLeaf:
        return db_.relation(expr->rel());
      case OpKind::kRestrict: {
        Relation input = EvalNode(expr->left(), /*is_root=*/false);
        KernelStats ks;
        Relation out = Restrict(input, expr->pred(), &ks);
        Account(ks, expr->left(), nullptr, out, is_root);
        return out;
      }
      case OpKind::kProject: {
        Relation input = EvalNode(expr->left(), /*is_root=*/false);
        KernelStats ks;
        Relation out = Project(input, expr->project_cols(),
                               expr->project_dedup(), &ks);
        Account(ks, expr->left(), nullptr, out, is_root);
        return out;
      }
      case OpKind::kUnion: {
        Relation a = EvalNode(expr->left(), /*is_root=*/false);
        Relation b = EvalNode(expr->right(), /*is_root=*/false);
        Relation out = BagUnionPadded(a, b);
        KernelStats ks;
        ks.left_reads = a.NumRows();
        ks.right_reads = b.NumRows();
        ks.emitted = out.NumRows();
        Account(ks, expr->left(), expr->right().get(), out, is_root);
        return out;
      }
      case OpKind::kMultiwayJoin: {
        // Reference semantics: the filtered cross product of the operands
        // in scheme order. The leapfrog executor must agree with this
        // exactly (bag multiplicities, 3VL residuals, column order).
        Relation acc = EvalNode(expr->mj_children()[0], /*is_root=*/false);
        if (expr->mj_children()[0]->is_leaf() && stats_ != nullptr) {
          stats_->base_tuples_read += acc.NumRows();
        }
        for (size_t i = 1; i < expr->mj_children().size(); ++i) {
          const ExprPtr& child = expr->mj_children()[i];
          Relation next = EvalNode(child, /*is_root=*/false);
          KernelStats ks;
          Relation joined = CrossProduct(acc, next, &ks);
          if (stats_ != nullptr) {
            stats_->totals += ks;
            if (child->is_leaf()) stats_->base_tuples_read += ks.right_reads;
            stats_->intermediate_tuples += joined.NumRows();
          }
          acc = std::move(joined);
        }
        if (expr->pred() == nullptr) return acc;
        KernelStats ks;
        Relation out = Restrict(acc, expr->pred(), &ks);
        if (stats_ != nullptr) {
          stats_->totals += ks;
          if (!is_root) stats_->intermediate_tuples += out.NumRows();
        }
        return out;
      }
      default:
        return EvalJoinLike(expr, is_root);
    }
  }

 private:
  Relation EvalJoinLike(const ExprPtr& expr, bool is_root) {
    // Kernels are left-anchored; realize `<-` style forms by swapping.
    ExprPtr anchor = expr->left();
    ExprPtr other = expr->right();
    const bool swapped =
        !expr->preserves_left() && expr->kind() != OpKind::kJoin;
    if (swapped) std::swap(anchor, other);

    Relation anchor_rel = EvalNode(anchor, /*is_root=*/false);
    Relation other_rel = EvalNode(other, /*is_root=*/false);

    // The inner base relation's persistent index on the predicate's
    // equi-key columns.
    std::shared_ptr<const HashIndex> index;
    if (options_.snapshot_indexes && other->is_leaf() &&
        options_.algo != JoinAlgo::kNestedLoop) {
      EquiKeys keys = ExtractEquiKeys(expr->pred(), anchor_rel.scheme(),
                                      other_rel.scheme());
      if (keys.Usable()) {
        index = SnapshotHashIndex(*db_.Snapshot(other->rel()), keys.right);
      }
    }
    const HashIndex* prebuilt = index.get();

    KernelStats ks;
    Relation out;
    switch (expr->kind()) {
      case OpKind::kJoin:
        out = Join(anchor_rel, other_rel, expr->pred(), options_.algo, &ks,
                   prebuilt);
        break;
      case OpKind::kOuterJoin:
        out = LeftOuterJoin(anchor_rel, other_rel, expr->pred(),
                            options_.algo, &ks, prebuilt);
        break;
      case OpKind::kAntijoin:
        out = Antijoin(anchor_rel, other_rel, expr->pred(), options_.algo,
                       &ks, prebuilt);
        break;
      case OpKind::kSemijoin:
        out = Semijoin(anchor_rel, other_rel, expr->pred(), options_.algo,
                       &ks, prebuilt);
        break;
      case OpKind::kGoj:
        FRO_CHECK(!swapped);
        out = GeneralizedOuterJoin(anchor_rel, other_rel, expr->pred(),
                                   expr->goj_subset(), options_.algo, &ks);
        break;
      default:
        FRO_CHECK(false) << "not a join-like operator";
    }
    Account(ks, anchor, other.get(), out, is_root);
    return out;
  }

  // `left_child` / `right_child` are the expressions whose evaluations fed
  // the kernel's left/right inputs (right_child may be null for unary
  // operators).
  void Account(const KernelStats& ks, const ExprPtr& left_child,
               const Expr* right_child, const Relation& out, bool is_root) {
    if (stats_ == nullptr) return;
    stats_->totals += ks;
    if (left_child->is_leaf()) stats_->base_tuples_read += ks.left_reads;
    if (right_child != nullptr && right_child->is_leaf()) {
      stats_->base_tuples_read += ks.right_reads;
    }
    if (!is_root) stats_->intermediate_tuples += out.NumRows();
  }

  const Database& db_;
  const EvalOptions& options_;
  EvalStats* stats_;
};

}  // namespace

Relation Eval(const ExprPtr& expr, const Database& db,
              const EvalOptions& options, EvalStats* stats) {
  Evaluator evaluator(db, options, stats);
  return evaluator.EvalNode(expr, /*is_root=*/true);
}

}  // namespace fro
