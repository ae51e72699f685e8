// Compact undirected graph used as the CONGEST communication network.
//
// Nodes are dense ids [0, n). Each undirected edge has a dense edge id
// [0, m); a *directed* edge id in [0, 2m) identifies (edge, direction) and is
// what the simulator and schedulers use for per-direction bandwidth
// accounting (the CONGEST model allows one message per direction per round).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace dasched {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};
inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};

struct HalfEdge {
  NodeId neighbor;
  EdgeId edge;  // undirected edge id
};

class Graph {
 public:
  /// Builds a graph from an edge list. Rejects self-loops and duplicate edges.
  Graph(NodeId n, std::span<const std::pair<NodeId, NodeId>> edges);
  Graph() = default;

  NodeId num_nodes() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  std::span<const HalfEdge> neighbors(NodeId v) const {
    DASCHED_DCHECK(v < n_);
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  std::uint32_t degree(NodeId v) const {
    DASCHED_DCHECK(v < n_);
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::uint32_t max_degree() const { return max_degree_; }

  /// Endpoints of undirected edge e, with endpoint_a < endpoint_b.
  std::pair<NodeId, NodeId> endpoints(EdgeId e) const {
    DASCHED_DCHECK(e < edges_.size());
    return edges_[e];
  }

  /// Directed edge id for sending over undirected edge `e` *from* node `from`.
  /// Direction 0 means from the smaller endpoint, 1 from the larger.
  std::uint32_t directed_id(EdgeId e, NodeId from) const {
    DASCHED_DCHECK(e < edges_.size());
    DASCHED_DCHECK(from == edges_[e].first || from == edges_[e].second);
    return 2 * e + (from == edges_[e].first ? 0 : 1);
  }

  std::uint32_t num_directed_edges() const { return 2 * num_edges(); }

  /// Directed edge ids for every half-edge of `v`, parallel to neighbors(v):
  /// directed_ids(v)[slot] == directed_id(neighbors(v)[slot].edge, v). Cached
  /// at construction so per-message send paths need no find_edge/directed_id
  /// recomputation.
  std::span<const std::uint32_t> directed_ids(NodeId v) const {
    DASCHED_DCHECK(v < n_);
    return {directed_adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// The other endpoint of e relative to v.
  NodeId other_endpoint(EdgeId e, NodeId v) const {
    const auto [a, b] = endpoints(e);
    DASCHED_DCHECK(v == a || v == b);
    return v == a ? b : a;
  }

  /// Edge id between u and v, or kInvalidEdge. O(min degree).
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// True if every pair of nodes is connected (BFS from node 0).
  bool is_connected() const;

 private:
  NodeId n_ = 0;
  std::uint32_t max_degree_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;  // (min, max) endpoints
  std::vector<std::size_t> offsets_;              // size n_ + 1
  std::vector<HalfEdge> adjacency_;               // grouped by node
  std::vector<std::uint32_t> directed_adjacency_; // parallel to adjacency_
};

/// Canonical topology fingerprint (util/fingerprint.hpp): FNV-1a over n
/// followed by every undirected edge's (min, max) endpoints in edge-id
/// order. Edge ids are construction order, so two graphs fingerprint equal
/// iff they are the same graph built the same way -- exactly the equivalence
/// the executor's determinism contract is stated in. Cache keys (the service
/// profile cache) and bench identity columns use this as the graph half of
/// their (program, graph) key.
std::uint64_t graph_fingerprint(const Graph& g);

}  // namespace dasched
