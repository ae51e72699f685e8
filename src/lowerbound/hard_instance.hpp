// Section 3: the hard distribution of DAS instances behind Theorem 3.1.
//
// Network (Figure 2): spine v_0..v_L plus groups U_1..U_L of `width` nodes,
// u in U_i adjacent to v_{i-1} and v_i. Each algorithm A_i:
//   round 2j-1:  v_{j-1} sends its running state to every u in S_j,
//   round 2j:    every u in S_j replies to v_j (state xor a u-specific mix),
// where S_j includes each node of U_j independently with probability q (the
// paper's n^{-0.1}). dilation = 2L; E[congestion] = k*q per directed edge.
//
// The paper's probabilistic-method argument: break time into phases of
// log n / (100 log log n) rounds; for any fixed crossing pattern some
// (layer, phase) pair carries load ~>= 0.9 * k * L / (L * 0.1L) per layer and
// anti-concentration forces some edge to exceed the phase budget with
// probability >= n^{-0.2}; independence across the width edges plus a union
// bound over the e^{Theta(n^{0.3})} crossing patterns kills every short
// schedule. Empirically (bench E2) we measure exactly the quantity the proof
// manipulates: the per-(phase, edge) load overflow of the best schedules we
// can produce, and the achieved length / (congestion + dilation) ratio, which
// grows with n on this family while staying O(1) on packet routing.
//
// The XOR-chain states make every spine output depend on the entire
// communication history, so scheduling errors are always detected by
// output comparison.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "sched/problem.hpp"
#include "util/rng.hpp"

namespace dasched {

class HardInstanceAlgorithm final : public DistributedAlgorithm {
 public:
  /// members[j] lists the nodes of S_{j+1} (ids in the layered graph),
  /// sorted. `layers` is L, `width` the group size.
  HardInstanceAlgorithm(NodeId layers, NodeId width,
                        std::vector<std::vector<NodeId>> members,
                        std::uint64_t initial_value, std::uint64_t base_seed);

  std::string name() const override { return "hard-instance"; }
  std::uint32_t rounds() const override { return 2 * layers_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;

  /// Spine/member exchanges are single-word state values.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 1;
    return f;
  }

  /// Oracle: the state spine v_p should hold after absorbing S_p's replies.
  std::uint64_t expected_spine_state(NodeId p) const;

  /// Deterministic per-member reply mix.
  static std::uint64_t member_mix(NodeId member) { return splitmix64(0x5EEDBA5Eu ^ member); }

  NodeId layers() const { return layers_; }
  NodeId width() const { return width_; }
  const std::vector<std::vector<NodeId>>& members() const { return members_; }

 private:
  NodeId layers_;
  NodeId width_;
  std::vector<std::vector<NodeId>> members_;
  std::uint64_t initial_value_;
};

struct HardInstanceConfig {
  NodeId layers = 8;         // L
  NodeId width = 32;         // eta
  std::size_t algorithms = 16;  // k
  double participation = 0.25;  // q = P[u in S_j]
  std::uint64_t seed = 1;
};

/// Samples a DAS instance from the Section 3 distribution on the layered
/// graph `g` (which must be make_layered(cfg.layers, cfg.width)).
std::unique_ptr<ScheduleProblem> make_hard_instance(const Graph& g,
                                                    const HardInstanceConfig& cfg);

/// Paper-faithful parameter scaling for a given budget `n_target` of nodes:
/// L ~ n^0.1 and width ~ n^0.9 collapse at laptop scale, so we use the same
/// *ratios* the proof needs -- k*q = Theta(L) (congestion ~ dilation) with
/// q = c / sqrt(width) so that per-edge loads are in the anti-concentration
/// regime. Returns the config (graph built by the caller via make_layered).
HardInstanceConfig scaled_hard_instance_config(std::uint64_t n_target, std::uint64_t seed);

}  // namespace dasched
