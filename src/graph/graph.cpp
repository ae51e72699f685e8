#include "graph/graph.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "util/fingerprint.hpp"

namespace dasched {

Graph::Graph(NodeId n, std::span<const std::pair<NodeId, NodeId>> edges) : n_(n) {
  edges_.reserve(edges.size());
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.size() * 2);
  for (auto [u, v] : edges) {
    DASCHED_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    DASCHED_CHECK_MSG(u != v, "self-loop");
    const NodeId a = std::min(u, v);
    const NodeId b = std::max(u, v);
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    DASCHED_CHECK_MSG(seen.insert(key).second, "duplicate edge");
    edges_.emplace_back(a, b);
  }

  std::vector<std::uint32_t> deg(n_, 0);
  for (auto [a, b] : edges_) {
    ++deg[a];
    ++deg[b];
  }
  offsets_.assign(n_ + 1, 0);
  for (NodeId v = 0; v < n_; ++v) offsets_[v + 1] = offsets_[v] + deg[v];
  adjacency_.resize(offsets_[n_]);

  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const auto [a, b] = edges_[e];
    adjacency_[cursor[a]++] = HalfEdge{b, e};
    adjacency_[cursor[b]++] = HalfEdge{a, e};
  }
  for (NodeId v = 0; v < n_; ++v) {
    auto span = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]);
    auto end = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]);
    std::sort(span, end,
              [](const HalfEdge& x, const HalfEdge& y) { return x.neighbor < y.neighbor; });
    max_degree_ = std::max(max_degree_, deg[v]);
  }

  directed_adjacency_.resize(adjacency_.size());
  for (NodeId v = 0; v < n_; ++v) {
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      directed_adjacency_[i] = directed_id(adjacency_[i].edge, v);
    }
  }
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  DASCHED_DCHECK(u < n_ && v < n_);
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  // Adjacency is sorted by neighbor id.
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v,
                             [](const HalfEdge& h, NodeId x) { return h.neighbor < x; });
  if (it != nbrs.end() && it->neighbor == v) return it->edge;
  return kInvalidEdge;
}

bool Graph::is_connected() const {
  if (n_ == 0) return true;
  std::vector<bool> visited(n_, false);
  std::queue<NodeId> queue;
  queue.push(0);
  visited[0] = true;
  NodeId reached = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    for (const auto& h : neighbors(v)) {
      if (!visited[h.neighbor]) {
        visited[h.neighbor] = true;
        ++reached;
        queue.push(h.neighbor);
      }
    }
  }
  return reached == n_;
}

std::uint64_t graph_fingerprint(const Graph& g) {
  Fingerprint fp;
  fp.mix(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [lo, hi] = g.endpoints(e);
    fp.mix(lo);
    fp.mix(hi);
  }
  return fp.digest();
}

}  // namespace dasched
