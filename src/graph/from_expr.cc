#include "graph/from_expr.h"

#include <set>

#include "common/check.h"

namespace fro {

namespace {

// The ground relations referenced by a predicate.
std::set<RelId> ReferencedRelations(const PredicatePtr& pred,
                                    const Catalog& catalog) {
  std::set<RelId> out;
  for (AttrId attr : pred->References()) {
    out.insert(catalog.AttrRelation(attr));
  }
  return out;
}

Status AddLeaves(const ExprPtr& expr, const Database& db, QueryGraph* graph) {
  if (expr->is_leaf()) {
    if (graph->num_nodes() == QueryGraph::kMaxNodes) {
      return InvalidArgument("graph(Q) supports at most 64 relations");
    }
    graph->AddNode(expr->rel(), expr->attrs());
    return Status::Ok();
  }
  if (expr->kind() != OpKind::kJoin && expr->kind() != OpKind::kOuterJoin) {
    return InvalidArgument(
        std::string("graph(Q) is defined for Join/Outerjoin queries only; "
                    "found ") +
        OpKindName(expr->kind()));
  }
  FRO_RETURN_IF_ERROR(AddLeaves(expr->left(), db, graph));
  return AddLeaves(expr->right(), db, graph);
}

Status AddEdges(const ExprPtr& expr, const Database& db, QueryGraph* graph) {
  if (expr->is_leaf()) return Status::Ok();
  const Catalog& catalog = db.catalog();

  if (expr->kind() == OpKind::kJoin) {
    if (expr->pred() == nullptr ||
        expr->pred()->Conjuncts(expr->pred()).empty()) {
      return InvalidArgument("join without a predicate (Cartesian product)");
    }
    for (const PredicatePtr& conjunct : expr->pred()->Conjuncts(expr->pred())) {
      std::set<RelId> rels = ReferencedRelations(conjunct, catalog);
      if (rels.size() != 2) {
        return InvalidArgument(
            "join conjunct must reference exactly two ground relations: " +
            conjunct->ToString(&catalog));
      }
      auto it = rels.begin();
      RelId r1 = *it++;
      RelId r2 = *it;
      // The two relations must sit on opposite sides of the operator.
      const bool r1_left =
          (expr->left()->rel_mask() & (1ULL << r1)) != 0;
      const bool r2_left =
          (expr->left()->rel_mask() & (1ULL << r2)) != 0;
      if (r1_left == r2_left) {
        return InvalidArgument(
            "join conjunct does not cross the operator's operands: " +
            conjunct->ToString(&catalog));
      }
      FRO_RETURN_IF_ERROR(graph->AddJoinEdge(graph->NodeOf(r1),
                                             graph->NodeOf(r2), conjunct));
    }
  } else if (expr->kind() == OpKind::kOuterJoin) {
    if (expr->pred() == nullptr) {
      return InvalidArgument("outerjoin without a predicate");
    }
    std::set<RelId> rels = ReferencedRelations(expr->pred(), catalog);
    if (rels.size() != 2) {
      return InvalidArgument(
          "outerjoin predicate must reference exactly two ground "
          "relations: " +
          expr->pred()->ToString(&catalog));
    }
    auto it = rels.begin();
    RelId r1 = *it++;
    RelId r2 = *it;
    const ExprPtr& preserved =
        expr->preserves_left() ? expr->left() : expr->right();
    const ExprPtr& null_side =
        expr->preserves_left() ? expr->right() : expr->left();
    RelId preserved_rel, null_rel;
    if ((preserved->rel_mask() & (1ULL << r1)) != 0 &&
        (null_side->rel_mask() & (1ULL << r2)) != 0) {
      preserved_rel = r1;
      null_rel = r2;
    } else if ((preserved->rel_mask() & (1ULL << r2)) != 0 &&
               (null_side->rel_mask() & (1ULL << r1)) != 0) {
      preserved_rel = r2;
      null_rel = r1;
    } else {
      return InvalidArgument(
          "outerjoin predicate does not cross the operator's operands: " +
          expr->pred()->ToString(&catalog));
    }
    FRO_RETURN_IF_ERROR(graph->AddOuterJoinEdge(
        graph->NodeOf(preserved_rel), graph->NodeOf(null_rel), expr->pred()));
  } else {
    return InvalidArgument(
        std::string("graph(Q) is defined for Join/Outerjoin queries only; "
                    "found ") +
        OpKindName(expr->kind()));
  }

  FRO_RETURN_IF_ERROR(AddEdges(expr->left(), db, graph));
  return AddEdges(expr->right(), db, graph);
}

}  // namespace

Result<QueryGraph> GraphOf(const ExprPtr& expr, const Database& db) {
  FRO_CHECK(expr != nullptr);
  QueryGraph graph;
  FRO_RETURN_IF_ERROR(AddLeaves(expr, db, &graph));
  FRO_RETURN_IF_ERROR(AddEdges(expr, db, &graph));
  return graph;
}

}  // namespace fro
