// Lemma 4.2: ball-carving graph partitioning with only private randomness.
//
// Theta(log n) independent layers; in each layer every node u draws a
// truncated-exponential radius r(u) (scale Theta(dilation), following
// Bartal) and a random label l(u), and every node v joins the cluster of the
// *smallest-labelled* u whose ball B(u, r(u)) contains v. Properties:
//   (1) clusters in a layer are node-disjoint (each v picks one center),
//   (2) weak cluster diameter O(dilation log n) (radii are capped at H),
//   (3) w.h.p. each node's dilation-ball is fully inside a cluster in
//       Theta(log n) of the layers (the memoryless-tail argument), and
//   (4) each node learns h'(v): the largest h with B(v, h) inside its cluster
//       (equivalently its distance to the nearest cluster-boundary node,
//       capped at the query radius).
//
// The distributed implementation is the paper's min-label flood, folded into
// Lemma 4.3's sharing run (sched/rand_sharing.hpp), which floods every center's
// tokens with the same fake initial hop-count H - r(u) and therefore already
// learns each node's center label. Its tail adds the rest of this lemma:
// ceil(L/4) announce rounds, each carrying 4 layers' center labels, mark the
// boundary nodes of every layer (a neighbour holds another label), and a
// D-round BFS from all boundary nodes, one layer bitmask per message, yields
// h'. The tail costs ceil(L/4) + dilation rounds and is counted as
// precomputation_rounds here; the token phase is counted by SharedSeeds.
//
// A central (non-distributed) construction with the *same* randomness is
// provided as a test oracle: both must agree exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "rand/distributions.hpp"
#include "telemetry/telemetry.hpp"

namespace dasched {

struct ClusteringConfig {
  std::uint64_t seed = 1;
  /// The paper's `dilation` parameter: radii scale with it and h' is capped
  /// at it (coverage means h'(v) >= dilation).
  std::uint32_t dilation = 1;
  /// Radius scale multiplier: R = radius_factor * dilation. Calibrated so a
  /// dilation-ball is padded with probability ~0.4-0.5 per layer across the
  /// test topologies (the paper's "constant probability"; see bench E3).
  double radius_factor = 2.0;
  /// Number of layers; 0 derives 2 ln(n). Radii are truncated at
  /// R * 2 ln(n).
  std::uint32_t num_layers = 0;
  /// Optional telemetry sink (borrowed): the clustering/build_central span,
  /// the clustering.rounds counter of the distributed run's tail, and the
  /// clustering.clusters_per_layer / clustering.h_prime histograms.
  TelemetrySink* telemetry = nullptr;
};

struct ClusterLayer {
  std::vector<NodeId> center;         // per node: id of its cluster center
  std::vector<std::uint64_t> label;   // per node: label of its center
  std::vector<std::uint32_t> h_prime; // per node: contained radius, capped

  /// Records the layer's cluster count and per-node h' histograms.
  void record_metrics(TelemetrySink* telemetry) const;
};

struct Clustering {
  std::vector<ClusterLayer> layers;
  std::uint32_t hop_cap = 0;        // H = max radius + 1
  std::uint32_t radius_query_cap = 0;  // h' cap (== config dilation)
  /// CONGEST rounds of the distributed run's announce and boundary tail.
  std::uint64_t precomputation_rounds = 0;
  /// Radius distribution parameters, kept so downstream protocols (Lemma 4.3
  /// sharing) can replay the identical per-node draws.
  double radius_scale = 1.0;
  double radius_truncation_logs = 1.0;

  TruncatedExponentialRadius radius_distribution_for_replay() const {
    return {radius_scale, radius_truncation_logs};
  }

  std::size_t num_layers() const { return layers.size(); }

  /// Number of layers whose cluster fully contains B(v, radius).
  std::uint32_t coverage(NodeId v, std::uint32_t radius) const;
};

class ClusteringBuilder {
 public:
  explicit ClusteringBuilder(ClusteringConfig cfg);

  const ClusteringConfig& config() const { return cfg_; }

  /// The layer-independent parameters (H, h' cap, radius distribution) with
  /// no layers yet. The distributed run (RandomnessSharing::run_distributed)
  /// and build_central both start from it.
  Clustering frame(const Graph& g) const;

  /// The clusters computed centrally from the per-node random draws the
  /// distributed run makes (test oracle; precomputation_rounds is 0).
  Clustering build_central(const Graph& g) const;

  /// Per-layer base seed: node v draws layer l's radius, label and seed
  /// words from Rng(seed_combine(layer_seed(seed, l), v)).
  static std::uint64_t layer_seed(std::uint64_t seed, std::uint32_t layer) {
    return seed_combine(seed, layer, 0xC1u);
  }

  /// The (radius, label) draw every node performs first, shared by the
  /// distributed run and the central oracles. Label embeds the node id in
  /// the low 32 bits so labels are distinct deterministically.
  static void draw_node_params(Rng& rng, const TruncatedExponentialRadius& dist,
                               NodeId node, std::uint32_t* radius, std::uint64_t* label);

  std::uint32_t resolved_layers(NodeId n) const;

 private:
  ClusteringConfig cfg_;
};

}  // namespace dasched
