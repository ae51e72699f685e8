// Appendix A's worked example: (1+eps)-approximate counting of distinct
// elements in every node's d-hop neighborhood, using shared hash functions.
//
// Every node holds a string s_v (conceptually poly(n) bits; we store the
// Theta(log n)-bit image of the paper's first dimensionality-reduction hash,
// which is collision-free w.h.p.). For each threshold k_j = rho^j and each
// iteration t, a shared binary hash h'_{j,t} marks each string with
// probability p_j = 1 - 2^{-1/k_j} -- chosen so that the probability that
// *some* string in a set of N distinct strings is marked equals
// 1 - 2^{-N/k_j}, i.e. exactly 1/2 at N = k_j. A d-round bitwise-OR flood
// tells every node whether a marked string exists within d hops; the
// majority over Theta(log n / eps^2) iterations separates N >= (1+eps/2)k
// from N <= k/(1+eps/2), and scanning the thresholds yields the estimate.
// Iterations are bundled 64 per message word, giving the appendix's
// O(d log n / eps^3) rounds overall.
//
// The hash functions are derived from a seed: with *global* shared
// randomness the same seed is baked into every node; under the Bellagio
// wrapper (derand/bellagio.hpp) each node uses its cluster's locally-shared
// seed instead, which is consistent exactly where it matters (any d-ball
// inside one cluster).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dasched {

struct DistinctElementsParams {
  std::uint32_t radius = 2;        // d
  double rho = 1.5;                // threshold ratio 1 + eps
  std::uint32_t iterations = 48;   // per threshold (majority sample)
  std::uint32_t num_thresholds = 0;  // 0: derive ceil(log_rho n) + 1
};

class DistinctElementsAlgorithm final : public DistributedAlgorithm {
 public:
  /// `values[v]` is node v's string (distinct values are what gets counted;
  /// equal values at different nodes count once). `node_seeds[v]` is the
  /// shared-randomness seed as node v knows it -- identical everywhere for
  /// global shared randomness, or v's cluster seed under the wrapper.
  DistinctElementsAlgorithm(const Graph& g, DistinctElementsParams params,
                            std::vector<std::uint64_t> values,
                            std::vector<std::vector<std::uint64_t>> node_seeds,
                            std::uint64_t base_seed);

  std::string name() const override { return "distinct-elements"; }
  std::uint32_t rounds() const override { return total_rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  /// Deliberately opaque -- and the fallback is tight here: the OR-flood has
  /// every node sending on every incident edge in every round, which is
  /// exactly the whole-bandwidth surface the analyzer assumes. Payload width
  /// is still bounded: every message is a {word index, mask word} pair.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 2;
    return f;
  }

  std::uint32_t num_thresholds() const { return num_thresholds_; }
  std::uint32_t words() const { return words_; }
  const DistinctElementsParams& params() const { return params_; }

  /// The shared binary hash: is string `value` marked in experiment (j, t)
  /// under `seed`? Exposed so oracles can recompute expected outputs.
  static bool marked(std::uint64_t seed, std::uint32_t threshold_index,
                     std::uint32_t iteration, std::uint64_t value, double rho);

  /// Collapses a node's seed words into the single hashing seed.
  static std::uint64_t fold_seed(const std::vector<std::uint64_t>& words);

  /// Output layout: {threshold index j_hat, estimate round(rho^j_hat)}.
  static constexpr std::size_t kOutIndex = 0;
  static constexpr std::size_t kOutEstimate = 1;

 private:
  const Graph* graph_;
  DistinctElementsParams params_;
  std::vector<std::uint64_t> values_;
  std::vector<std::vector<std::uint64_t>> node_seeds_;
  std::uint32_t num_thresholds_;
  std::uint32_t words_;         // message words per node (64 experiments each)
  std::uint32_t total_rounds_;  // words * radius
};

/// Central oracle: exact number of distinct values within `radius` hops of
/// every node.
std::vector<std::uint64_t> exact_distinct_counts(const Graph& g,
                                                 const std::vector<std::uint64_t>& values,
                                                 std::uint32_t radius);

}  // namespace dasched
