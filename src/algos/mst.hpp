// Distributed MST with a congestion/dilation tradeoff knob (Section 5).
//
// The paper's concluding discussion observes that single-shot algorithms
// tuned for dilation (round complexity) are not congestion-optimal, and that
// Kutten-Peleg-style parameter tuning yields the tradeoff
//     congestion ~ L,   dilation ~ O~(D + n/L),
// which -- combined with the paper's scheduler -- solves k-shot MST in
// O~(D + sqrt(kn)) rounds at L = sqrt(n/k). This module implements that
// tunable algorithm:
//
//  Phase 1 (fragments):  Boruvka with star-contraction merging. Each phase:
//    exchange fragment ids -> timed convergecast of the fragment's minimum
//    weight outgoing edge (MWOE, blue rule) to the fragment root -> the root
//    of a "tail" fragment (public coin = hash(fragment id, phase)) merges
//    into a "head" fragment over its MWOE -> flood the new fragment id and
//    rebuild a BFS tree of the merged fragment. Phases stop once the number
//    of fragments is <= target_fragments (the knob: #fragments ~ final
//    upcast congestion ~ the paper's L).
//
//  Phase 2 (upcast):      build a BFS tree from node 0, then pipeline the
//    inter-fragment candidate edges upward with local Kruskal filtering
//    (a node forwards an edge only if it joins two fragments not yet
//    connected by edges it already forwarded); the root runs Kruskal and
//    pipelines the chosen inter-fragment MST edges back down.
//
// Round budgets are data-dependent (fragment diameters), so they are
// computed by a central *planner* that replays the deterministic merge
// schedule (same weights, same public coins). This mirrors the paper's
// standing assumption that nodes know constant-factor parameter estimates;
// the message-passing execution itself is genuinely distributed. DESIGN.md
// records the substitution.
//
// Output per node: the sorted list of its incident MST edge ids -- verified
// against central Kruskal in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dasched {

/// Per-phase budgets computed by the planner.
struct MstPhasePlan {
  std::uint32_t depth_before;    // max fragment-tree depth entering the phase
  std::uint32_t diameter_after;  // max fragment diameter after merging
  std::uint32_t budget;          // rounds allotted to the phase
};

struct MstPlan {
  std::vector<MstPhasePlan> phases;
  std::uint32_t num_fragments = 0;   // fragments entering the upcast
  std::uint32_t bfs_depth = 0;       // eccentricity of node 0
  std::uint32_t upcast_rounds = 0;
  std::uint32_t downcast_rounds = 0;
  std::uint32_t total_rounds = 0;
};

/// Deterministic distinct edge weights from a seed.
std::vector<std::uint64_t> make_mst_weights(const Graph& g, std::uint64_t seed);

/// Replays the deterministic fragment evolution centrally and returns tight
/// round budgets. `target_fragments` is the L knob (>= 1); the fragment
/// phase stops once #fragments <= target_fragments (or no merge happens).
MstPlan plan_mst(const Graph& g, const std::vector<std::uint64_t>& weights,
                 std::uint32_t target_fragments);

class PipelineMstAlgorithm final : public DistributedAlgorithm {
 public:
  PipelineMstAlgorithm(const Graph& g, std::vector<std::uint64_t> weights,
                       std::uint32_t target_fragments, std::uint64_t base_seed);

  std::string name() const override { return "pipeline-mst"; }
  std::uint32_t rounds() const override { return plan_.total_rounds; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  /// Deliberately opaque: the pattern depends on the data-driven fragment
  /// evolution (which edges are MWOEs, where fragments merge), so the
  /// analyzer falls back to the conservative whole-bandwidth bound. The
  /// payload width is still bounded: the widest record is the candidate
  /// report {tag, weight, u, v, fragments}, five words.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 5;
    return f;
  }

  const MstPlan& plan() const { return plan_; }
  const std::vector<std::uint64_t>& weights() const { return weights_; }
  const Graph& graph() const { return *graph_; }

  /// Public coin of a fragment in a phase (tail = merge-proposer when 0).
  static bool is_head(NodeId fragment, std::uint32_t phase) {
    return (splitmix64(seed_combine(fragment, phase, 0xC01u)) & 1) != 0;
  }

 private:
  const Graph* graph_;
  std::vector<std::uint64_t> weights_;
  std::uint32_t target_fragments_;
  MstPlan plan_;
};

}  // namespace dasched
