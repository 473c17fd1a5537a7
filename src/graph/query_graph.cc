#include "graph/query_graph.h"

#include <bit>

#include "common/check.h"

namespace fro {

int QueryGraph::AddNode(RelId rel, AttrSet attrs) {
  FRO_CHECK_LT(num_nodes(), kMaxNodes) << "query graphs support <= 64 nodes";
  FRO_CHECK_EQ(NodeOf(rel), -1) << "relation already has a node";
  node_rel_.push_back(rel);
  node_attrs_.push_back(std::move(attrs));
  adjacency_.push_back(0);
  return static_cast<int>(node_rel_.size()) - 1;
}

int QueryGraph::FindEdgeBetween(int u, int v) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    const GraphEdge& e = edges_[i];
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status QueryGraph::AddJoinEdge(int u, int v, PredicatePtr conjunct) {
  FRO_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes() && u != v);
  int existing = FindEdgeBetween(u, v);
  if (existing >= 0) {
    GraphEdge& e = edges_[static_cast<size_t>(existing)];
    if (e.directed) {
      return InvalidArgument(
          "parallel join and outerjoin edges between the same relations");
    }
    // Collapse parallel conjuncts into one edge (Section 1.2).
    e.pred = AndOf(e.pred, std::move(conjunct));
    return Status::Ok();
  }
  edges_.push_back(GraphEdge{u, v, /*directed=*/false, std::move(conjunct)});
  adjacency_[static_cast<size_t>(u)] |= 1ULL << v;
  adjacency_[static_cast<size_t>(v)] |= 1ULL << u;
  return Status::Ok();
}

Status QueryGraph::AddOuterJoinEdge(int u, int v, PredicatePtr pred) {
  FRO_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes() && u != v);
  if (FindEdgeBetween(u, v) >= 0) {
    return InvalidArgument(
        "outerjoin edge parallel to an existing edge between the same "
        "relations");
  }
  edges_.push_back(GraphEdge{u, v, /*directed=*/true, std::move(pred)});
  adjacency_[static_cast<size_t>(u)] |= 1ULL << v;
  adjacency_[static_cast<size_t>(v)] |= 1ULL << u;
  return Status::Ok();
}

int QueryGraph::NodeOf(RelId rel) const {
  for (size_t i = 0; i < node_rel_.size(); ++i) {
    if (node_rel_[i] == rel) return static_cast<int>(i);
  }
  return -1;
}

uint64_t QueryGraph::AllMask() const {
  int n = num_nodes();
  return n == 64 ? ~0ULL : (1ULL << n) - 1;
}

bool QueryGraph::IsConnected(uint64_t mask) const {
  if (mask == 0) return false;
  uint64_t start = mask & (~mask + 1);  // lowest set bit
  uint64_t reached = start;
  for (;;) {
    uint64_t frontier = 0;
    uint64_t pending = reached;
    while (pending != 0) {
      int node = std::countr_zero(pending);
      pending &= pending - 1;
      frontier |= adjacency_[static_cast<size_t>(node)];
    }
    uint64_t next = (reached | frontier) & mask;
    if (next == reached) break;
    reached = next;
  }
  return reached == mask;
}

std::vector<int> QueryGraph::EdgesCrossing(uint64_t a, uint64_t b) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const GraphEdge& e = edges_[i];
    uint64_t mu = 1ULL << e.u;
    uint64_t mv = 1ULL << e.v;
    if (((mu & a) != 0 && (mv & b) != 0) ||
        ((mu & b) != 0 && (mv & a) != 0)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

uint64_t QueryGraph::Neighbors(uint64_t mask) const {
  uint64_t out = 0;
  uint64_t pending = mask;
  while (pending != 0) {
    int node = std::countr_zero(pending);
    pending &= pending - 1;
    out |= adjacency_[static_cast<size_t>(node)];
  }
  return out & ~mask;
}

std::vector<int> QueryGraph::EdgesWithin(uint64_t mask) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const GraphEdge& e = edges_[i];
    if ((mask & (1ULL << e.u)) != 0 && (mask & (1ULL << e.v)) != 0) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::string QueryGraph::ToString(const Catalog* catalog) const {
  std::string out;
  for (int i = 0; i < num_nodes(); ++i) {
    if (i > 0) out += ", ";
    out += catalog != nullptr ? catalog->RelationName(node_rel_[i])
                              : "R" + std::to_string(node_rel_[i]);
  }
  out += "\n";
  for (const GraphEdge& e : edges_) {
    std::string lhs = catalog != nullptr
                          ? catalog->RelationName(node_rel_[e.u])
                          : "R" + std::to_string(node_rel_[e.u]);
    std::string rhs = catalog != nullptr
                          ? catalog->RelationName(node_rel_[e.v])
                          : "R" + std::to_string(node_rel_[e.v]);
    out += "  " + lhs + (e.directed ? " -> " : " -- ") + rhs;
    if (e.pred != nullptr) out += "  [" + e.pred->ToString(catalog) + "]";
    out += "\n";
  }
  return out;
}

}  // namespace fro
