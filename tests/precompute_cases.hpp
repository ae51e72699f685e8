// Shared golden cases for the Thm 4.1 precomputation simulations: Lemma 4.2
// distributed clustering (tests/test_clustering.cpp) and Lemma 4.3 pipelined
// randomness sharing (tests/test_rand_sharing.cpp).
//
// The digests fold every field the two passes produce, so the pinned
// constants catch any change in the protocols' messages, in their forwarding
// order, or in the rounds they spend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"
#include "sched/workloads.hpp"
#include "util/fingerprint.hpp"

namespace dasched::testing_cases {

struct PrecomputeCase {
  std::string name;
  Graph graph;
  ClusteringConfig clustering;
  RandSharingConfig sharing;
};

inline PrecomputeCase make_case(std::string name, Graph g, std::uint32_t dilation,
                                std::uint64_t seed, std::uint32_t layers,
                                std::uint32_t words = 0, std::uint32_t slack = 4) {
  PrecomputeCase c{std::move(name), std::move(g), {}, {}};
  c.clustering.seed = seed;
  c.clustering.dilation = dilation;
  c.clustering.num_layers = layers;
  c.sharing.seed = seed;
  c.sharing.words_per_seed = words;
  c.sharing.slack_rounds = slack;
  return c;
}

/// Six shapes: the das_batch problem shape (G(128, 6/n) at dilation 10 with
/// the default layer and word counts), a larger G(300, 6/n), a grid, a path,
/// a star (one hub relays every token), and a low-slack case whose round
/// budget has no safety margin beyond H + 3s.
inline std::vector<PrecomputeCase> precompute_cases() {
  std::vector<PrecomputeCase> cases;
  {
    Rng rng(1);
    cases.push_back(
        make_case("gnp128_d10", make_gnp_connected(128, 6.0 / 128, rng), 10, 1, 0));
  }
  {
    Rng rng(2);
    cases.push_back(
        make_case("gnp300_d3", make_gnp_connected(300, 6.0 / 300, rng), 3, 2, 4));
  }
  cases.push_back(make_case("grid8x8_d2", make_grid(8, 8), 2, 3, 6));
  cases.push_back(make_case("path40_d3", make_path(40), 3, 4, 6));
  cases.push_back(make_case("star33_d2", make_star(33), 2, 5, 6));
  {
    Rng rng(6);
    cases.push_back(make_case("gnp96_lowslack", make_gnp_connected(96, 8.0 / 96, rng), 2,
                              6, 6, /*words=*/12, /*slack=*/0));
  }
  return cases;
}

/// perfbench's seed derivation (splitmix64 of seed and salt), so the
/// das_batch problems below are the benchmark's own.
inline std::uint64_t das_batch_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The das_batch workload's problem i (of 8) at benchmark seed `seed`: its
/// G(128, 6/n) graph and problem seed.
struct DasBatchProblem {
  Graph graph;
  std::uint64_t seed;
};

inline DasBatchProblem das_batch_problem(std::uint64_t seed, std::size_t i) {
  Rng rng(das_batch_seed(seed, 10 + i));
  return {make_gnp_connected(128, 6.0 / 128, rng), das_batch_seed(seed, 20 + i)};
}

/// The precomputation the Thm 4.1 scheduler runs for das_batch problem i:
/// the problem's dilation, default layer and word counts.
inline PrecomputeCase das_batch_case(std::uint64_t seed, std::size_t i) {
  auto p = das_batch_problem(seed, i);
  const std::uint32_t dilation = make_mixed_workload(p.graph, 24, 3, p.seed)->dilation();
  return make_case("das_batch_s" + std::to_string(seed) + "_" + std::to_string(i),
                   std::move(p.graph), dilation, p.seed, 0);
}

/// What the two passes compute, without the rounds they spend: every layer's
/// centers, center labels and h', and every node's words, sharing center
/// label and completion flag. A change of round count leaves it unchanged.
inline std::uint64_t content_digest(const Clustering& c, const SharedSeeds& s) {
  Fingerprint fp;
  fp.mix(c.layers.size()).mix(s.layers.size());
  for (std::size_t l = 0; l < c.layers.size(); ++l) {
    const auto& cl = c.layers[l];
    const auto& sl = s.layers[l];
    for (std::size_t v = 0; v < cl.center.size(); ++v) {
      fp.mix(cl.center[v]).mix(cl.label[v]).mix(cl.h_prime[v]);
      fp.mix(sl.center_label[v]).mix(sl.complete[v]).mix(sl.words[v].size());
      for (const auto w : sl.words[v]) fp.mix(w);
    }
  }
  fp.mix(c.hop_cap).mix(c.radius_query_cap).mix(s.words_per_seed);
  return fp.digest();
}

inline std::uint64_t clustering_digest(const Clustering& c) {
  Fingerprint fp;
  fp.mix(c.layers.size());
  for (const auto& layer : c.layers) {
    for (std::size_t v = 0; v < layer.center.size(); ++v) {
      fp.mix(layer.center[v]).mix(layer.label[v]).mix(layer.h_prime[v]);
    }
  }
  fp.mix(c.hop_cap).mix(c.radius_query_cap).mix(c.precomputation_rounds);
  return fp.digest();
}

inline std::uint64_t sharing_digest(const SharedSeeds& s) {
  Fingerprint fp;
  fp.mix(s.layers.size());
  for (const auto& layer : s.layers) {
    for (std::size_t v = 0; v < layer.words.size(); ++v) {
      fp.mix(layer.words[v].size());
      for (const auto w : layer.words[v]) fp.mix(w);
      fp.mix(layer.center_label[v]).mix(layer.complete[v]);
    }
  }
  fp.mix(s.words_per_seed).mix(s.rounds);
  return fp.digest();
}

}  // namespace dasched::testing_cases
