#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "kruskal.hpp"

namespace dasched {
namespace {

TEST(Graph, BasicAccessors) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}};
  Graph g(4, edges);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_directed_edges(), 8u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, NeighborsSortedById) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{3, 0}, {0, 2}, {1, 0}};
  Graph g(4, edges);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].neighbor, 1u);
  EXPECT_EQ(nbrs[1].neighbor, 2u);
  EXPECT_EQ(nbrs[2].neighbor, 3u);
}

TEST(Graph, FindEdgeAndDirectedIds) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}};
  Graph g(3, edges);
  const EdgeId e = g.find_edge(2, 1);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.endpoints(e), (std::pair<NodeId, NodeId>{1, 2}));
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  // Directions are distinct and consistent.
  EXPECT_NE(g.directed_id(e, 1), g.directed_id(e, 2));
  EXPECT_EQ(g.directed_id(e, 1), 2 * e);
  EXPECT_EQ(g.directed_id(e, 2), 2 * e + 1);
  EXPECT_EQ(g.other_endpoint(e, 1), 2u);
  EXPECT_EQ(g.other_endpoint(e, 2), 1u);
}

TEST(Graph, DisconnectedDetected) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {2, 3}};
  Graph g(4, edges);
  EXPECT_FALSE(g.is_connected());
}

TEST(BfsDistances, PathGraph) {
  const auto g = make_path(6);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
  const auto from_mid = bfs_distances(g, 3);
  EXPECT_EQ(from_mid[0], 3u);
  EXPECT_EQ(from_mid[5], 2u);
}

TEST(BfsDistances, CappedStopsAtRadius) {
  const auto g = make_path(10);
  const auto dist = bfs_distances_capped(g, 0, 4);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], kUnreachable);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(exact_diameter(make_path(10)), 9u);
  EXPECT_EQ(exact_diameter(make_cycle(10)), 5u);
  EXPECT_EQ(exact_diameter(make_complete(8)), 1u);
  EXPECT_EQ(exact_diameter(make_star(9)), 2u);
  EXPECT_EQ(exact_diameter(make_grid(4, 5)), 7u);
}

TEST(Eccentricity, CenterOfPath) {
  const auto g = make_path(9);
  EXPECT_EQ(eccentricity(g, 4), 4u);
  EXPECT_EQ(eccentricity(g, 0), 8u);
}

TEST(Kruskal, MatchesBruteForceOnSmallGraph) {
  // Square with diagonal: 0-1(1) 1-2(2) 2-3(3) 3-0(4) 0-2(5).
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  Graph g(4, edges);
  const std::vector<std::uint64_t> w = {1, 2, 3, 4, 5};
  const auto mst = kruskal_mst(g, w);
  EXPECT_EQ(mst, (std::vector<EdgeId>{0, 1, 2}));
  EXPECT_EQ(total_weight(mst, w), 6u);
}

TEST(Kruskal, SpanningTreeProperties) {
  Rng rng(17);
  const auto g = make_random_connected(40, 120, rng);
  std::vector<std::uint64_t> w(g.num_edges());
  std::set<std::uint64_t> used;
  for (auto& x : w) {
    std::uint64_t c;
    do {
      c = rng.next_below(1'000'000);
    } while (!used.insert(c).second);
    x = c;
  }
  const auto mst = kruskal_mst(g, w);
  EXPECT_EQ(mst.size(), g.num_nodes() - 1u);
  // The chosen edges span the graph.
  std::vector<std::pair<NodeId, NodeId>> tree_edges;
  for (const auto e : mst) tree_edges.push_back(g.endpoints(e));
  Graph tree(g.num_nodes(), tree_edges);
  EXPECT_TRUE(tree.is_connected());
}

}  // namespace
}  // namespace dasched
