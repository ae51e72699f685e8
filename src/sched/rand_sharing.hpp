// Lemma 4.3: sharing Theta(log^2 n) bits of randomness in every cluster --
// and, folded into the same CONGEST run, Lemma 4.2's clustering.
//
// In every layer l every node u (a potential center) draws its radius r(u),
// its label and s = Theta(log n) seed words of Theta(log n) bits from
// Rng(seed_combine(layer_seed(seed, l), u)), and injects s tokens
// (label, layer, sub-label, word), all with the fake initial hop-count
// H - r(u) of Lemma 4.2. The layers are independent, so all L layers' tokens
// share one pipeline (the simultaneous-multicast setting). Each round every
// node sends, to all neighbours, the token with the smallest
// (label, layer, sub-label) among those that are
//   ripe          -- held hop-count h <= round - 1 (own tokens ripen at
//                    round H - r(u) + 1; a received token is ripe on arrival),
//   in budget     -- h + 1 <= H, so a token reaches exactly its center's ball,
//   improved      -- h is below the hop-count it was last sent with (a
//                    lower-hop copy that arrives late is sent again),
//   not dominated -- the node holds no smaller label u of the same layer at
//                    a best hop <= h. Every node this token could still reach
//                    is then inside B(u), so none of them has its label as
//                    its center. The test only reads hop-counts, never
//                    arrival times, so queueing delay does not break it.
// Without the domination rule, tokens no node needs crowd the pipeline and
// the round budget below leaves nodes incomplete.
//
// Rounds: the token phase takes H + 3·L·s + slack rounds (Lenzen-style
// pipelining: a token's queueing delay is bounded by the number of
// smaller-keyed tokens it meets). A node's smallest heard label in a layer
// is by definition its clustering center, and the center's s words are what
// it keeps. The clustering tail (sched/clustering.hpp) follows: ceil(L/4)
// announce rounds and a D-round boundary BFS. In total
// H + 3·L·s + slack + ceil(L/4) + D rounds, O(dilation log^2 n) for the
// whole precomputation. A node turns the received words into a
// Theta(log n)-wise independent value family (rand/kwise.hpp) from which
// per-algorithm delays are drawn consistently cluster-wide.
//
// Limits: the boundary BFS's layer bitmask is one word and a token packs
// layer<<32 | sub into one word, so L <= 64 (checked) and s < 2^32.
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
  /// Extra token-phase rounds beyond H + 3·L·s (safety slack).
  std::uint32_t slack_rounds = 4;
  /// Optional telemetry sink (borrowed): the rand_sharing/run_distributed
  /// span and the rand_sharing.rounds and rand_sharing.incomplete_nodes
  /// counters.
  TelemetrySink* telemetry = nullptr;
};

struct SharedSeeds {
  struct Layer {
    /// words[v]: the seed words node v attributes to its center (size s;
    /// missing words are 0 with complete[v] == false).
    std::vector<std::vector<std::uint64_t>> words;
    /// Smallest label node v heard during sharing (its clustering center
    /// label).
    std::vector<std::uint64_t> center_label;
    std::vector<std::uint8_t> complete;
  };
  std::vector<Layer> layers;
  std::uint32_t words_per_seed = 0;
  std::uint64_t rounds = 0;  // CONGEST rounds of the token phase

  bool all_complete() const;
};

/// Theorem 4.1's whole precomputation: the clustering and the shared seeds.
/// Its CONGEST rounds are clustering.precomputation_rounds + seeds.rounds.
struct Precomputation {
  Clustering clustering;
  SharedSeeds seeds;
};

class RandomnessSharing {
 public:
  explicit RandomnessSharing(RandSharingConfig cfg) : cfg_(cfg) {}

  /// The real protocol: Lemmas 4.2 and 4.3 for every layer as one run in the
  /// CONGEST simulator. `clustering`'s seed must equal this config's.
  Precomputation run_distributed(const Graph& g, const ClusteringBuilder& clustering) const;

  /// Oracle: hands every node its center's words directly (same draws,
  /// zero rounds). Used by tests and by fast benchmark sweeps.
  SharedSeeds run_central(const Graph& g, const Clustering& clustering) const;

  std::uint32_t resolved_words(NodeId n) const;

 private:
  RandSharingConfig cfg_;
};

}  // namespace dasched
