// h-hop breadth-first search (item (II) in the paper's introduction).
//
// Identical message footprint to broadcast -- the BFS token floods outward --
// but each node additionally outputs its hop distance and BFS parent (the
// minimum-id neighbor among first-round senders, making the output
// deterministic). This is the workload of Holzer-Wattenhofer / Lenzen-Peleg:
// k BFS instances together are schedulable in O(k + h) rounds, and the paper's
// scheduler recovers that behaviour up to its log factor.
//
// BFS is also the paper's canonical example of why communication patterns
// cannot be known a priori: a node does not know in which round or from which
// neighbors its token will arrive.
#pragma once

#include <cstdint>

#include "congest/program.hpp"

namespace dasched {

class BfsAlgorithm final : public DistributedAlgorithm {
 public:
  BfsAlgorithm(NodeId source, std::uint32_t max_hops, std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), source_(source), max_hops_(max_hops) {
    DASCHED_CHECK(max_hops >= 1);
  }

  std::string name() const override { return "bfs"; }
  std::uint32_t rounds() const override { return max_hops_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  StaticFootprint static_footprint() const override {
    return StaticFootprint::flood(source_, StaticFootprint::Outputs::kBfs);
  }

  NodeId source() const { return source_; }

  /// Output layout: {reached (0/1), distance, parent} with parent == self for
  /// the source and ~0 when unreached.
  static constexpr std::size_t kOutReached = 0;
  static constexpr std::size_t kOutDistance = 1;
  static constexpr std::size_t kOutParent = 2;

 private:
  NodeId source_;
  std::uint32_t max_hops_;
};

}  // namespace dasched
