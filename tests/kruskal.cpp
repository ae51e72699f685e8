#include "kruskal.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "util/check.hpp"

namespace dasched {

namespace {

class UnionFind {
 public:
  explicit UnionFind(NodeId n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }
  NodeId find(NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

}  // namespace

std::vector<EdgeId> kruskal_mst(const Graph& g, const std::vector<std::uint64_t>& weights) {
  DASCHED_CHECK(weights.size() == g.num_edges());
  {
    std::unordered_set<std::uint64_t> distinct(weights.begin(), weights.end());
    DASCHED_CHECK_MSG(distinct.size() == weights.size(),
                      "MST weights must be distinct for uniqueness");
  }
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(),
            [&](EdgeId a, EdgeId b) { return weights[a] < weights[b]; });

  UnionFind uf(g.num_nodes());
  std::vector<EdgeId> chosen;
  chosen.reserve(g.num_nodes() - 1);
  for (const EdgeId e : order) {
    const auto [u, v] = g.endpoints(e);
    if (uf.unite(u, v)) chosen.push_back(e);
  }
  DASCHED_CHECK_MSG(chosen.size() + 1 == g.num_nodes(), "kruskal on disconnected graph");
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::uint64_t total_weight(const std::vector<EdgeId>& edges,
                           const std::vector<std::uint64_t>& weights) {
  std::uint64_t sum = 0;
  for (const EdgeId e : edges) {
    DASCHED_CHECK(e < weights.size());
    sum += weights[e];
  }
  return sum;
}

}  // namespace dasched
