// Lemma 4.3: sharing Theta(log^2 n) bits of randomness in every cluster.
//
// Every node (a potential center) draws s = Theta(log n) seed words of
// Theta(log n) bits and injects s tokens (label l(u), sub-label j, word),
// all with the same fake initial hop-count H - r(u) as in the clustering of
// Lemma 4.2. Each round every node forwards, to all neighbors, the token
// with the smallest (label, sub-label) among those that are
//   ripe      -- held hop-count h <= round - 1 (own tokens ripen at round
//                H - r(u) + 1; a received token is ripe on arrival),
//   in budget -- h + 1 <= H, so a token reaches exactly its center's ball,
//   improved  -- h is below the hop-count it was last forwarded with (a
//                lower-hop copy that arrives late is forwarded again).
// This is Lenzen's pipelining: after H + Theta(log n) rounds per layer each
// node has received all s words of its cluster center (the center's label is
// by definition the smallest that can reach the node). All Theta(log n) layers
// together cost O(dilation log^2 n) rounds, and a node turns the received
// words into a Theta(log n)-wise independent value family (rand/kwise.hpp)
// from which per-algorithm delays are drawn consistently cluster-wide.
//
// The layer programs reuse the clustering layer's base seed, so the
// (radius, label) draws coincide with Lemma 4.2's and the words a node
// receives really are "its center's".
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sched/clustering.hpp"

namespace dasched {

struct RandSharingConfig {
  /// Must equal the ClusteringConfig seed used for the clustering.
  std::uint64_t seed = 1;
  /// s: number of Theta(log n)-bit words per cluster seed; this is also the
  /// independence parameter of the derived k-wise family. 0 derives ceil(ln n).
  std::uint32_t words_per_seed = 0;
  /// Extra rounds beyond the H + s pipelining bound (safety slack).
  std::uint32_t slack_rounds = 4;
  /// Optional telemetry sink (borrowed): rand_sharing/run + per-layer spans,
  /// rand_sharing.rounds and rand_sharing.incomplete_nodes counters.
  TelemetrySink* telemetry = nullptr;
};

struct SharedSeeds {
  struct Layer {
    /// words[v]: the seed words node v attributes to its center (size s;
    /// missing words are 0 with complete[v] == false).
    std::vector<std::vector<std::uint64_t>> words;
    /// Smallest label node v heard during sharing (must equal its clustering
    /// center label -- checked by tests).
    std::vector<std::uint64_t> center_label;
    std::vector<std::uint8_t> complete;
  };
  std::vector<Layer> layers;
  std::uint32_t words_per_seed = 0;
  std::uint64_t rounds = 0;  // CONGEST rounds spent

  bool all_complete() const;
};

class RandomnessSharing {
 public:
  explicit RandomnessSharing(RandSharingConfig cfg) : cfg_(cfg) {}

  /// The real protocol, run in the CONGEST simulator, one run per layer.
  SharedSeeds run_distributed(const Graph& g, const Clustering& clustering) const;

  /// Oracle: hands every node its center's words directly (same draws,
  /// zero rounds). Used by tests and by fast benchmark sweeps.
  SharedSeeds run_central(const Graph& g, const Clustering& clustering) const;

  std::uint32_t resolved_words(NodeId n) const;

 private:
  RandSharingConfig cfg_;
};

}  // namespace dasched
