// Lemma 4.3 tests: the pipelined dissemination must deliver every node all
// Theta(log n) seed words of its own cluster center within H + Theta(log n)
// rounds per layer, and must agree with the central oracle.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"
#include "precompute_cases.hpp"

namespace dasched {
namespace {

struct SharingFixture {
  Graph graph;
  Clustering clustering;
  std::uint64_t seed;
};

SharingFixture make_fixture(Graph g, std::uint32_t dilation, std::uint64_t seed,
                            std::uint32_t layers) {
  ClusteringConfig cfg;
  cfg.seed = seed;
  cfg.dilation = dilation;
  cfg.num_layers = layers;
  auto clustering = ClusteringBuilder(cfg).build_distributed(g);
  return {std::move(g), std::move(clustering), seed};
}

TEST(RandSharing, EveryNodeReceivesItsCenterSeed) {
  Rng rng(1);  // seed re-picked when make_gnp_connected moved to skip-sampling (PR 7)
  auto fx = make_fixture(make_gnp_connected(60, 0.08, rng), 2, 5, 5);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 6;
  const RandomnessSharing sharing(cfg);
  const auto seeds = sharing.run_distributed(fx.graph, fx.clustering);
  EXPECT_TRUE(seeds.all_complete());
  ASSERT_EQ(seeds.layers.size(), fx.clustering.num_layers());
  for (std::size_t l = 0; l < seeds.layers.size(); ++l) {
    for (NodeId v = 0; v < fx.graph.num_nodes(); ++v) {
      EXPECT_EQ(seeds.layers[l].center_label[v], fx.clustering.layers[l].label[v])
          << "layer " << l << " node " << v;
      EXPECT_EQ(seeds.layers[l].words[v].size(), cfg.words_per_seed);
    }
  }
}

TEST(RandSharing, DistributedMatchesCentralOracle) {
  auto fx = make_fixture(make_grid(6, 6), 2, 9, 4);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 5;
  const RandomnessSharing sharing(cfg);
  const auto dist = sharing.run_distributed(fx.graph, fx.clustering);
  const auto central = sharing.run_central(fx.graph, fx.clustering);
  ASSERT_TRUE(dist.all_complete());
  for (std::size_t l = 0; l < dist.layers.size(); ++l) {
    for (NodeId v = 0; v < fx.graph.num_nodes(); ++v) {
      EXPECT_EQ(dist.layers[l].words[v], central.layers[l].words[v])
          << "layer " << l << " node " << v;
    }
  }
}

TEST(RandSharing, ClusterMembersHoldIdenticalSeeds) {
  Rng rng(4);
  auto fx = make_fixture(make_gnp_connected(50, 0.1, rng), 2, 11, 4);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 4;
  const auto seeds = RandomnessSharing(cfg).run_distributed(fx.graph, fx.clustering);
  ASSERT_TRUE(seeds.all_complete());
  for (std::size_t l = 0; l < seeds.layers.size(); ++l) {
    for (NodeId u = 0; u < fx.graph.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < fx.graph.num_nodes(); ++v) {
        if (fx.clustering.layers[l].center[u] == fx.clustering.layers[l].center[v]) {
          EXPECT_EQ(seeds.layers[l].words[u], seeds.layers[l].words[v]);
        }
      }
    }
  }
}

TEST(RandSharing, RoundBudgetIsPipelined) {
  // Per layer: H + s + slack rounds -- *not* the naive H * s.
  auto fx = make_fixture(make_path(30), 3, 13, 3);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 8;
  cfg.slack_rounds = 4;
  const auto seeds = RandomnessSharing(cfg).run_distributed(fx.graph, fx.clustering);
  const std::uint64_t per_layer = fx.clustering.hop_cap + 3 * 8 + 4;
  EXPECT_EQ(seeds.rounds, per_layer * fx.clustering.num_layers());
  EXPECT_TRUE(seeds.all_complete());
}

TEST(RandSharing, WordsDifferAcrossLayersAndCenters) {
  auto fx = make_fixture(make_grid(5, 5), 2, 21, 3);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 4;
  const auto seeds = RandomnessSharing(cfg).run_central(fx.graph, fx.clustering);
  // Different layers' seeds for the same node should differ (independent
  // layer randomness).
  bool differs = false;
  for (NodeId v = 0; v < fx.graph.num_nodes() && !differs; ++v) {
    differs = seeds.layers[0].words[v] != seeds.layers[1].words[v];
  }
  EXPECT_TRUE(differs);
}

// Digests of run_distributed (every layer's words, center labels, completion
// flags, and the rounds spent) on the shared precomputation cases, captured
// from the std::map-based node program. Do not regenerate: a change to the
// node's data structures must keep the forwarding order, and therefore every
// output, bit-identical.
TEST(RandSharingGolden, DistributedMatchesPinnedDigests) {
  const std::uint64_t kGolden[] = {
      0x44948afff9a61a14ULL,  // gnp128_d10
      0x4ab86913dfe95820ULL,  // gnp300_d3
      0x817fbb5781529422ULL,  // grid8x8_d2
      0x2c8be462125af8b3ULL,  // path40_d3
      0x1dd58bc721a62761ULL,  // star33_d2
      0x05de90d28c7dfeb2ULL,  // gnp96_lowslack
  };
  const auto cases = testing_cases::precompute_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto clustering = ClusteringBuilder(c.clustering).build_distributed(c.graph);
    const auto seeds = RandomnessSharing(c.sharing).run_distributed(c.graph, clustering);
    EXPECT_EQ(testing_cases::sharing_digest(seeds), kGolden[i]) << c.name;
  }
}

/// Runs the distributed sharing and checks it against the central oracle:
/// every node complete, holding its clustering center's label and words.
void expect_matches_oracle(Graph g, std::uint32_t dilation, std::uint32_t words,
                           std::uint32_t layers) {
  auto fx = make_fixture(std::move(g), dilation, 23, layers);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = words;
  const RandomnessSharing sharing(cfg);
  const auto dist = sharing.run_distributed(fx.graph, fx.clustering);
  const auto central = sharing.run_central(fx.graph, fx.clustering);
  EXPECT_TRUE(dist.all_complete());
  EXPECT_EQ(dist.words_per_seed, words);
  EXPECT_EQ(dist.rounds,
            (fx.clustering.hop_cap + 3 * words + cfg.slack_rounds) * layers);
  ASSERT_EQ(dist.layers.size(), layers);
  for (std::size_t l = 0; l < layers; ++l) {
    for (NodeId v = 0; v < fx.graph.num_nodes(); ++v) {
      EXPECT_EQ(dist.layers[l].center_label[v], fx.clustering.layers[l].label[v])
          << "layer " << l << " node " << v;
      EXPECT_EQ(dist.layers[l].words[v], central.layers[l].words[v])
          << "layer " << l << " node " << v;
    }
  }
}

TEST(RandSharing, OneWordPerSeed) {
  Rng rng(8);
  expect_matches_oracle(make_gnp_connected(40, 0.1, rng), 2, 1, 4);
}

TEST(RandSharing, SingleNodeGraphKeepsItsOwnWords) {
  // No neighbors: nothing is ever sent, and the node's own tokens are all it
  // holds.
  expect_matches_oracle(make_path(1), 1, 3, 2);
}

TEST(RandSharing, TwoNodePath) {
  expect_matches_oracle(make_path(2), 1, 4, 3);
}

}  // namespace
}  // namespace dasched
