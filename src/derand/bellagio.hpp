// Appendix A, Meta-Theorem A.1: removing shared randomness from Bellagio
// (pseudo-deterministic) distributed algorithms at an O(log^2 n) slowdown.
//
// Given a T-round algorithm that needs R bits of shared randomness, the
// wrapper (1) carves Theta(log n) clustering layers with radius scale
// Theta(T) (Lemma 4.2), (2) shares a seed inside every cluster (Lemma 4.3),
// (3) runs one copy of the algorithm per layer, truncated at cluster
// boundaries exactly like Lemma 4.4 (node v executes round r of a layer only
// if h'(v) >= r-1), each copy consuming its *cluster's* seed, and (4) has
// each node adopt the output of a layer whose cluster fully contains its
// T-ball -- where the local execution is indistinguishable from a global
// shared-randomness run. The Bellagio property (a canonical output in >= 2/3
// of executions) is what makes outputs from different nodes' different
// chosen layers mutually consistent.
//
// Total cost: O(T log^2 n + R) pre-computation plus num_layers * T execution
// rounds, vs Omega(diameter) for naively electing a leader to broadcast
// shared randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "congest/executor.hpp"
#include "graph/graph.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"

namespace dasched {

/// Builds the seeded algorithm: `node_seeds[v]` is the shared seed as node v
/// knows it (cluster-consistent). The result must be a T-round algorithm
/// with T == declared_rounds.
using SeededAlgorithmFactory = std::function<std::unique_ptr<DistributedAlgorithm>(
    const std::vector<std::vector<std::uint64_t>>& node_seeds)>;

struct BellagioConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_layers = 0;   // 0: Theta(log n)
  double radius_factor = 2.0;     // clustering radius scale, in units of T
  bool central_precomputation = false;  // oracle clustering/sharing (fast sweeps)
};

struct BellagioResult {
  /// outputs[v]: the output node v adopts (from its first fully-containing
  /// layer); empty if the node had no valid layer (valid[v] == 0).
  NodeOutputs outputs;
  std::vector<std::uint8_t> valid;
  std::uint64_t precomputation_rounds = 0;  // Lemmas 4.2 + 4.3
  std::uint64_t execution_rounds = 0;       // num_layers * T
  std::uint32_t num_layers = 0;
  std::uint64_t uncovered_nodes = 0;
};

/// Runs the wrapper for a T-round seeded algorithm.
BellagioResult run_bellagio(const Graph& g, std::uint32_t algorithm_rounds,
                            const SeededAlgorithmFactory& factory,
                            const BellagioConfig& cfg);

}  // namespace dasched
