#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

namespace dasched {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  return bfs_distances_capped(g, source, kUnreachable);
}

std::vector<std::uint32_t> bfs_distances_capped(const Graph& g, NodeId source,
                                                std::uint32_t max_hops) {
  DASCHED_CHECK(source < g.num_nodes());
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::queue<NodeId> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    if (dist[v] >= max_hops) continue;
    for (const auto& h : g.neighbors(v)) {
      if (dist[h.neighbor] == kUnreachable) {
        dist[h.neighbor] = dist[v] + 1;
        queue.push(h.neighbor);
      }
    }
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (const auto d : dist) {
    DASCHED_CHECK_MSG(d != kUnreachable, "eccentricity on disconnected graph");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t exact_diameter(const Graph& g) {
  std::uint32_t diameter = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    diameter = std::max(diameter, eccentricity(g, v));
  }
  return diameter;
}

}  // namespace dasched
