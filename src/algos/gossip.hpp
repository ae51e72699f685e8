// Randomized push gossip: in every round, each informed node pushes the
// rumor to one uniformly random neighbor.
//
// This workload exists to exercise a subtle part of the paper's Section 2
// model: the algorithms being scheduled may themselves be randomized, and
// "we consider [their randomness] as a part of the input to the node ... at
// the start of the execution, each node samples its bits of randomness,
// thus fixing them". In this library that is realized by building each
// node's program with its own Rng, node_rng(algorithm base seed, node id)
// (congest/program.hpp) -- so the solo execution and any scheduled execution
// see identical coin flips, and output verification stays exact even though
// the communication pattern is random.
//
// Gossip is also a pattern-wise interesting workload: its footprint is a
// random subgraph per round (low congestion, irregular), unlike the
// deterministic floods.
#pragma once

#include <cstdint>

#include "congest/program.hpp"

namespace dasched {

class GossipAlgorithm final : public DistributedAlgorithm {
 public:
  GossipAlgorithm(NodeId source, std::uint32_t rounds, std::uint64_t rumor,
                  std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), source_(source), rounds_(rounds), rumor_(rumor) {
    DASCHED_CHECK(rounds >= 1);
  }

  std::string name() const override { return "push-gossip"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  /// Exact despite the coin flips: per-node randomness is fixed at start from
  /// (base seed, node), so the analyzer replays the pushes centrally.
  StaticFootprint static_footprint() const override {
    return StaticFootprint::gossip_push(source_, rumor_);
  }

  /// Output layout: {informed (0/1), rumor, round informed (~0 if never)}.
  static constexpr std::size_t kOutInformed = 0;
  static constexpr std::size_t kOutRumor = 1;
  static constexpr std::size_t kOutRound = 2;

 private:
  NodeId source_;
  std::uint32_t rounds_;
  std::uint64_t rumor_;
};

}  // namespace dasched
