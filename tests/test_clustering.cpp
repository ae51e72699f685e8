// Lemma 4.2 tests: the distributed ball-carving protocol must agree *exactly*
// with the central oracle (same random draws), and the clustering must
// satisfy the lemma's four properties.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"
#include "precompute_cases.hpp"

namespace dasched {
namespace {

/// The clustering half of the distributed precomputation run.
Clustering distributed(const Graph& g, const ClusteringConfig& cfg) {
  const RandomnessSharing sharing({.seed = cfg.seed});
  return sharing.run_distributed(g, ClusteringBuilder(cfg)).clustering;
}

struct ClusterCase {
  std::string name;
  Graph graph;
  std::uint32_t dilation;
};

std::vector<ClusterCase>& cluster_cases() {
  static auto* cases = [] {
    Rng rng(99);
    auto* v = new std::vector<ClusterCase>;
    v->push_back({"path40", make_path(40), 3});
    v->push_back({"grid6x7", make_grid(6, 7), 2});
    v->push_back({"gnp70", make_gnp_connected(70, 0.07, rng), 2});
    v->push_back({"tree63", make_binary_tree(63), 3});
    v->push_back({"cycle50", make_cycle(50), 4});
    return v;
  }();
  return *cases;
}

class ClusteringOnGraphs : public ::testing::TestWithParam<std::size_t> {
 protected:
  static ClusteringConfig config_for(const ClusterCase& c, std::uint64_t seed) {
    ClusteringConfig cfg;
    cfg.seed = seed;
    cfg.dilation = c.dilation;
    cfg.num_layers = 6;  // keep tests fast; coverage tests use more
    return cfg;
  }
};

TEST_P(ClusteringOnGraphs, DistributedMatchesCentralOracle) {
  const auto& c = cluster_cases()[GetParam()];
  for (std::uint64_t seed : {1ULL, 17ULL}) {
    const ClusteringBuilder builder(config_for(c, seed));
    const auto dist = distributed(c.graph, config_for(c, seed));
    const auto central = builder.build_central(c.graph);
    ASSERT_EQ(dist.num_layers(), central.num_layers());
    for (std::size_t l = 0; l < dist.num_layers(); ++l) {
      for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
        EXPECT_EQ(dist.layers[l].center[v], central.layers[l].center[v])
            << c.name << " seed " << seed << " layer " << l << " node " << v;
        EXPECT_EQ(dist.layers[l].label[v], central.layers[l].label[v]);
        EXPECT_EQ(dist.layers[l].h_prime[v], central.layers[l].h_prime[v])
            << c.name << " seed " << seed << " layer " << l << " node " << v;
      }
    }
  }
}

TEST_P(ClusteringOnGraphs, WeakDiameterBound) {
  // Property (2): every cluster is contained in a ball of radius r(center)
  // <= hop_cap around its center, so node-to-center distance <= hop_cap.
  const auto& c = cluster_cases()[GetParam()];
  const ClusteringBuilder builder(config_for(c, 3));
  const auto clustering = builder.build_central(c.graph);
  for (const auto& layer : clustering.layers) {
    for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
      const auto d = bfs_distances(c.graph, layer.center[v]);
      EXPECT_LE(d[v], clustering.hop_cap);
    }
  }
}

TEST_P(ClusteringOnGraphs, HPrimeIsExactContainedRadius) {
  // Property (4): h'(v) is the exact largest h <= cap with B(v, h) inside
  // v's cluster.
  const auto& c = cluster_cases()[GetParam()];
  const auto clustering = distributed(c.graph, config_for(c, 7));
  for (const auto& layer : clustering.layers) {
    for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
      const auto d = bfs_distances_capped(c.graph, v, clustering.radius_query_cap + 1);
      std::uint32_t true_h = clustering.radius_query_cap;
      for (NodeId w = 0; w < c.graph.num_nodes(); ++w) {
        if (d[w] != kUnreachable && layer.center[w] != layer.center[v] && d[w] >= 1) {
          true_h = std::min(true_h, d[w] - 1);
        }
      }
      EXPECT_EQ(layer.h_prime[v], true_h) << c.name << " node " << v;
    }
  }
}

TEST_P(ClusteringOnGraphs, PrecomputationRoundsMatchBudget) {
  const auto& c = cluster_cases()[GetParam()];
  const auto clustering = distributed(c.graph, config_for(c, 9));
  // The clustering tail of the joint run: ceil(L/4) announce rounds and a
  // dilation-round boundary BFS, for all layers together.
  const std::uint64_t announce = (clustering.num_layers() + 3) / 4;
  EXPECT_EQ(clustering.precomputation_rounds, announce + c.dilation);
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, ClusteringOnGraphs,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return cluster_cases()[info.param].name;
                         });

TEST(Clustering, CoverageGrowsWithLayers) {
  // Property (3): each dilation-ball is contained in some cluster with
  // constant probability per layer, so with enough layers every node is
  // covered. Check empirically on a moderate graph.
  Rng rng(5);
  const auto g = make_gnp_connected(120, 0.04, rng);
  ClusteringConfig cfg;
  cfg.seed = 31;
  cfg.dilation = 2;
  cfg.num_layers = 24;
  const auto clustering = ClusteringBuilder(cfg).build_central(g);
  std::uint32_t covered = 0;
  double total_cov = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto cov = clustering.coverage(v, cfg.dilation);
    total_cov += cov;
    if (cov > 0) ++covered;
  }
  EXPECT_EQ(covered, g.num_nodes());
  // Expected coverage per layer is a constant fraction; with 24 layers the
  // mean should be comfortably above 2.
  EXPECT_GT(total_cov / g.num_nodes(), 2.0);
}

TEST(Clustering, LayersAreIndependentAcrossSeeds) {
  const auto g = make_grid(5, 5);
  ClusteringConfig cfg;
  cfg.dilation = 2;
  cfg.num_layers = 4;
  cfg.seed = 1;
  const auto c1 = ClusteringBuilder(cfg).build_central(g);
  cfg.seed = 2;
  const auto c2 = ClusteringBuilder(cfg).build_central(g);
  bool any_difference = false;
  for (std::size_t l = 0; l < c1.num_layers() && !any_difference; ++l) {
    any_difference = c1.layers[l].center != c2.layers[l].center;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Clustering, SingleNodeGraph) {
  const auto g = make_path(1);
  ClusteringConfig cfg;
  cfg.dilation = 1;
  cfg.num_layers = 2;
  const auto clustering = distributed(g, cfg);
  for (const auto& layer : clustering.layers) {
    EXPECT_EQ(layer.center[0], 0u);
    EXPECT_EQ(layer.h_prime[0], cfg.dilation);  // no boundary anywhere
  }
}

// Digests of the distributed clustering (every layer's labels, centers and h',
// and the rounds of the run's clustering tail) on the shared precomputation
// cases, captured when all layers first ran as one precomputation run. Do not
// regenerate: an engine change must leave them unchanged.
TEST(ClusteringGolden, DistributedMatchesPinnedDigests) {
  const std::uint64_t kGolden[] = {
      0xc7fccc719728fdcaULL,  // gnp128_d10
      0xa76a586295bdcc81ULL,  // gnp300_d3
      0x6331592a0d56f65aULL,  // grid8x8_d2
      0x279ec05f32caa785ULL,  // path40_d3
      0x8e6f0cfbed1ce889ULL,  // star33_d2
      0xe5736206a5bced67ULL,  // gnp96_lowslack
  };
  const auto cases = testing_cases::precompute_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto clustering = distributed(cases[i].graph, cases[i].clustering);
    EXPECT_EQ(testing_cases::clustering_digest(clustering), kGolden[i]) << cases[i].name;
  }
}

}  // namespace
}  // namespace dasched
