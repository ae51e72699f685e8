// Lemma 4.3 tests: the pipelined dissemination must deliver every node all
// Theta(log n) seed words of its own cluster center within H + Theta(L log n)
// rounds for all L layers together, and must agree with the central oracles.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"
#include "precompute_cases.hpp"

namespace dasched {
namespace {

struct SharingFixture {
  Graph graph;
  ClusteringConfig config;
  Clustering clustering;  // the central oracle
  std::uint64_t seed;

  Precomputation run(const RandomnessSharing& sharing) const {
    return sharing.run_distributed(graph, ClusteringBuilder(config));
  }
};

SharingFixture make_fixture(Graph g, std::uint32_t dilation, std::uint64_t seed,
                            std::uint32_t layers) {
  ClusteringConfig cfg;
  cfg.seed = seed;
  cfg.dilation = dilation;
  cfg.num_layers = layers;
  auto clustering = ClusteringBuilder(cfg).build_central(g);
  return {std::move(g), cfg, std::move(clustering), seed};
}

TEST(RandSharing, EveryNodeReceivesItsCenterSeed) {
  Rng rng(1);  // seed re-picked when make_gnp_connected moved to skip-sampling (PR 7)
  auto fx = make_fixture(make_gnp_connected(60, 0.08, rng), 2, 5, 5);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 6;
  const auto seeds = fx.run(RandomnessSharing(cfg)).seeds;
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
  const auto dist = fx.run(sharing).seeds;
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
  const auto seeds = fx.run(RandomnessSharing(cfg)).seeds;
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
  // All layers share one pipeline: H + 3·L·s + slack token rounds -- *not*
  // the naive H * s per layer, nor L separate H + 3s + slack runs.
  auto fx = make_fixture(make_path(30), 3, 13, 3);
  RandSharingConfig cfg;
  cfg.seed = fx.seed;
  cfg.words_per_seed = 8;
  cfg.slack_rounds = 4;
  const auto seeds = fx.run(RandomnessSharing(cfg)).seeds;
  EXPECT_EQ(seeds.rounds, fx.clustering.hop_cap + 3 * 3 * 8 + 4);
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

// Digests of run_distributed's seeds (every layer's words, center labels,
// completion flags, and the token-phase rounds) on the shared precomputation
// cases, captured when all layers first shared one pipeline. Do not
// regenerate: a change to the node's data structures must keep the
// forwarding order, and therefore every output, bit-identical.
TEST(RandSharingGolden, DistributedMatchesPinnedDigests) {
  const std::uint64_t kGolden[] = {
      0x2c113c0119d6cf4cULL,  // gnp128_d10
      0x19e1042b716a4bb2ULL,  // gnp300_d3
      0x90164ce2749a03f2ULL,  // grid8x8_d2
      0x7feaaf730557bc83ULL,  // path40_d3
      0x72acbf39608ad32dULL,  // star33_d2
      0xffa7b3bb8465dc3dULL,  // gnp96_lowslack
  };
  const auto cases = testing_cases::precompute_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto pre =
        RandomnessSharing(c.sharing).run_distributed(c.graph, ClusteringBuilder(c.clustering));
    EXPECT_EQ(testing_cases::sharing_digest(pre.seeds), kGolden[i]) << c.name;
  }
}

// Content digests (tests/precompute_cases.hpp content_digest: centers, labels,
// h', words and completion, no rounds) of the distributed precomputation on
// the shared cases, captured when every layer ran its own clustering and
// sharing runs. Do not regenerate: only the rounds may change.
TEST(PrecomputeContentGolden, DistributedMatchesPinnedDigests) {
  const std::uint64_t kGolden[] = {
      0xac374d07bfa9f136ULL,  // gnp128_d10
      0xe13e48d3bd8506fbULL,  // gnp300_d3
      0x49fe3e4857b23446ULL,  // grid8x8_d2
      0xc25a218afde9f177ULL,  // path40_d3
      0xdc0c49486c962c24ULL,  // star33_d2
      0x06b696097c794f45ULL,  // gnp96_lowslack
  };
  const auto cases = testing_cases::precompute_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto pre =
        RandomnessSharing(c.sharing).run_distributed(c.graph, ClusteringBuilder(c.clustering));
    const auto d = testing_cases::content_digest(pre.clustering, pre.seeds);
    EXPECT_EQ(d, kGolden[i]) << c.name << " 0x" << std::hex << d;
  }
}

/// The joint run against both central oracles: every node complete in every
/// layer, with build_central's center, label and h' and run_central's words.
void expect_precompute_matches_oracles(const testing_cases::PrecomputeCase& c) {
  const ClusteringBuilder builder(c.clustering);
  const RandomnessSharing sharing(c.sharing);
  const auto pre = sharing.run_distributed(c.graph, builder);
  const auto clustering = builder.build_central(c.graph);
  const auto seeds = sharing.run_central(c.graph, clustering);
  ASSERT_EQ(pre.clustering.num_layers(), clustering.num_layers()) << c.name;
  ASSERT_EQ(pre.seeds.layers.size(), clustering.num_layers()) << c.name;
  EXPECT_EQ(pre.clustering.hop_cap, clustering.hop_cap) << c.name;
  std::uint64_t incomplete = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t l = 0; l < clustering.num_layers(); ++l) {
    const auto& dl = pre.clustering.layers[l];
    const auto& cl = clustering.layers[l];
    for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
      incomplete += pre.seeds.layers[l].complete[v] == 0;
      mismatched += dl.center[v] != cl.center[v] || dl.label[v] != cl.label[v] ||
                    dl.h_prime[v] != cl.h_prime[v] ||
                    pre.seeds.layers[l].center_label[v] != cl.label[v] ||
                    pre.seeds.layers[l].words[v] != seeds.layers[l].words[v];
    }
  }
  EXPECT_EQ(incomplete, 0u) << c.name << ": incomplete node-layers";
  EXPECT_EQ(mismatched, 0u) << c.name << ": node-layers differing from the oracles";
}

TEST(PrecomputeOracle, JointRunMatchesOraclesOnSharedCases) {
  for (const auto& c : testing_cases::precompute_cases()) expect_precompute_matches_oracles(c);
}

// The eight das_batch problems at the benchmark's default seed and at its
// held-out seed 1009.
TEST(PrecomputeOracle, JointRunMatchesOraclesOnDasBatch) {
  for (const std::uint64_t seed : {1ULL, 1009ULL}) {
    for (std::size_t i = 0; i < 8; ++i) {
      expect_precompute_matches_oracles(testing_cases::das_batch_case(seed, i));
    }
  }
}

// The boundary bitmask and the layer<<32 | sub packing hold at most 64 layers.
TEST(PrecomputeLimitsDeathTest, MoreThanSixtyFourLayersDie) {
  ClusteringConfig cfg;
  cfg.num_layers = 65;
  const auto g = make_path(2);
  EXPECT_DEATH(RandomnessSharing({}).run_distributed(g, ClusteringBuilder(cfg)),
               "packs layers into one word");
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
  const auto dist = fx.run(sharing).seeds;
  const auto central = sharing.run_central(fx.graph, fx.clustering);
  EXPECT_TRUE(dist.all_complete());
  EXPECT_EQ(dist.words_per_seed, words);
  EXPECT_EQ(dist.rounds, fx.clustering.hop_cap + 3 * layers * words + cfg.slack_rounds);
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
