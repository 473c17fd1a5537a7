#include "exec/build.h"

#include "common/check.h"
#include "exec/batch_operators.h"
#include "exec/morsel.h"
#include "wcoj/leapfrog.h"

namespace fro {

namespace {

BatchIteratorPtr Build(const ExprPtr& expr, const Database& db,
                       const ParallelOptions& options) {
  if (options.threads > 1 && MorselParallelizable(expr)) {
    return MakeExchange(expr, db, options);
  }
  const size_t capacity = options.batch_capacity;
  BatchIteratorPtr it;
  switch (expr->kind()) {
    case OpKind::kLeaf:
      it = std::make_unique<BatchScanIterator>(&db.relation(expr->rel()),
                                               db.CachedColumns(expr->rel()));
      break;
    case OpKind::kRestrict:
      it = std::make_unique<BatchFilterIterator>(
          Build(expr->left(), db, options), expr->pred());
      break;
    case OpKind::kProject:
      it = std::make_unique<BatchProjectIterator>(
          Build(expr->left(), db, options), expr->project_cols(),
          expr->project_dedup(), capacity);
      break;
    case OpKind::kUnion:
      it = std::make_unique<BatchUnionIterator>(
          Build(expr->left(), db, options), Build(expr->right(), db, options),
          capacity);
      break;
    case OpKind::kGoj:
      it = std::make_unique<BatchGojIterator>(
          Build(expr->left(), db, options), Build(expr->right(), db, options),
          expr->pred(), expr->goj_subset(), options.algo);
      break;
    case OpKind::kMultiwayJoin: {
      // Leapfrog runs serially over its trie indexes (no spine to
      // partition), and so do the operand subplans it drains.
      ParallelOptions serial = options;
      serial.threads = 1;
      std::vector<BatchIteratorPtr> inputs;
      inputs.reserve(expr->mj_children().size());
      for (const ExprPtr& child : expr->mj_children()) {
        inputs.push_back(Build(child, db, serial));
      }
      return MakeBatchLeapfrogIterator(expr, std::move(inputs), capacity);
    }
    default: {
      // Join-like: anchor the preserved/kept operand on the left.
      ExprPtr anchor = expr->left();
      ExprPtr other = expr->right();
      if (!expr->preserves_left() && expr->kind() != OpKind::kJoin) {
        std::swap(anchor, other);
      }
      BatchIteratorPtr left = Build(anchor, db, options);
      BatchIteratorPtr right = Build(other, db, options);
      JoinMode mode = JoinModeOf(expr->kind());
      EquiKeys keys =
          ExtractEquiKeys(expr->pred(), left->scheme(), right->scheme());
      const bool use_hash =
          keys.Usable() &&
          (options.algo == JoinAlgo::kHash || options.algo == JoinAlgo::kAuto);
      if (use_hash) {
        it = std::make_unique<BatchHashJoinIterator>(
            std::move(left), std::move(right), expr->pred(), mode,
            std::move(keys.left), std::move(keys.right), capacity);
      } else {
        it = std::make_unique<BatchNestedLoopJoinIterator>(
            std::move(left), std::move(right), expr->pred(), mode, capacity);
      }
      break;
    }
  }
  it->set_source_expr(expr);
  return it;
}

}  // namespace

BatchIteratorPtr BuildParallelBatchIterator(const ExprPtr& expr,
                                            const Database& db,
                                            const ParallelOptions& options) {
  FRO_CHECK(expr != nullptr);
  return Build(expr, db, options);
}

BatchIteratorPtr BuildBatchIterator(const ExprPtr& expr, const Database& db,
                                    JoinAlgo algo, size_t batch_capacity) {
  ParallelOptions options;
  options.algo = algo;
  options.batch_capacity = batch_capacity;
  return BuildParallelBatchIterator(expr, db, options);
}

Relation ExecuteBatched(const ExprPtr& expr, const Database& db,
                        JoinAlgo algo, size_t batch_capacity) {
  BatchIteratorPtr root = BuildBatchIterator(expr, db, algo, batch_capacity);
  return DrainBatches(root.get());
}

}  // namespace fro
