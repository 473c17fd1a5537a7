// Query graphs (paper Section 1.2): relations as nodes, join predicates as
// undirected edges, outerjoin predicates as edges directed toward the
// null-supplied relation. Parallel join edges (conjuncts between the same
// pair of relations) are collapsed into one edge whose label is their
// conjunction.

#ifndef FRO_GRAPH_QUERY_GRAPH_H_
#define FRO_GRAPH_QUERY_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/predicate.h"
#include "relational/schema.h"

namespace fro {

class Catalog;

struct GraphEdge {
  int u = 0;
  int v = 0;
  /// Directed edges are outerjoin edges: u is the preserved relation, v
  /// the null-supplied one. Undirected edges are join edges.
  bool directed = false;
  PredicatePtr pred;
};

/// A query graph over at most 64 nodes. Node subsets are 64-bit masks.
class QueryGraph {
 public:
  static constexpr int kMaxNodes = 64;

  QueryGraph() = default;

  /// Adds a node for ground relation `rel` with output attributes `attrs`;
  /// returns its node index. Callers building a graph from client input
  /// reject more than kMaxNodes relations first.
  int AddNode(RelId rel, AttrSet attrs);

  /// Adds a join conjunct between nodes `u` and `v`; collapses into an
  /// existing parallel join edge if present. Fails on a parallel
  /// outerjoin edge.
  Status AddJoinEdge(int u, int v, PredicatePtr conjunct);

  /// Adds an outerjoin edge directed from preserved `u` to null-supplied
  /// `v`. Fails if any parallel edge exists.
  Status AddOuterJoinEdge(int u, int v, PredicatePtr pred);

  int num_nodes() const { return static_cast<int>(node_rel_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const GraphEdge& edge(int i) const { return edges_[i]; }
  const std::vector<GraphEdge>& edges() const { return edges_; }
  RelId node_rel(int i) const { return node_rel_[i]; }
  const AttrSet& node_attrs(int i) const { return node_attrs_[i]; }
  /// Node index of relation `rel`, or -1.
  int NodeOf(RelId rel) const;

  /// Mask with one bit per node.
  uint64_t AllMask() const;
  /// True if the nodes of `mask` induce a connected subgraph (an empty
  /// mask is not connected; a singleton is).
  bool IsConnected(uint64_t mask) const;
  /// Indices of edges with one endpoint in `a` and the other in `b`.
  std::vector<int> EdgesCrossing(uint64_t a, uint64_t b) const;
  /// Nodes adjacent to `mask` (excluding `mask` itself).
  uint64_t Neighbors(uint64_t mask) const;
  /// Precomputed neighbor bitset of a single node.
  uint64_t adjacency(int node) const {
    return adjacency_[static_cast<size_t>(node)];
  }
  /// Edges with both endpoints inside `mask`.
  std::vector<int> EdgesWithin(uint64_t mask) const;

  std::string ToString(const Catalog* catalog = nullptr) const;

 private:
  int FindEdgeBetween(int u, int v) const;

  std::vector<RelId> node_rel_;
  std::vector<AttrSet> node_attrs_;
  std::vector<GraphEdge> edges_;
  std::vector<uint64_t> adjacency_;  // node -> neighbor mask
};

}  // namespace fro

#endif  // FRO_GRAPH_QUERY_GRAPH_H_
