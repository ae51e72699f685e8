// BFS-tree aggregation: flood + timed convergecast + result flood.
//
// A three-phase algorithm rooted at `root` over the h-hop ball:
//   rounds 1..h          BFS token floods outward (builds distances/parents),
//   rounds h+1..2h+1     timed convergecast: a node at depth q sends the
//                        aggregate (sum) of its subtree to its parent in round
//                        2h+1-q -- children (depth q+1) sent in round 2h-q, so
//                        their values arrive exactly in time,
//   rounds 2h+2..3h+1    the root floods the global aggregate back out.
//
// This is the classic "broadcast-and-echo" building block; we include it in
// scheduling workloads because its pattern exercises both directions of tree
// edges at widely different times, unlike pure floods.
#pragma once

#include <cstdint>

#include "congest/program.hpp"

namespace dasched {

class AggregateAlgorithm final : public DistributedAlgorithm {
 public:
  /// Sums `local_value(v) = seed-hashed v` (deterministic) over the h-ball of
  /// root and delivers the sum to every node in the ball.
  AggregateAlgorithm(NodeId root, std::uint32_t radius, std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), root_(root), radius_(radius) {
    DASCHED_CHECK(radius >= 1);
  }

  std::string name() const override { return "aggregate"; }
  std::uint32_t rounds() const override { return 3 * radius_ + 1; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  StaticFootprint static_footprint() const override {
    return StaticFootprint::three_phase_aggregate(root_, radius_);
  }

  NodeId root() const { return root_; }
  std::uint32_t radius() const { return radius_; }

  /// Deterministic per-node value being aggregated.
  std::uint64_t local_value(NodeId v) const { return splitmix64(base_seed() ^ v) & 0xffff; }

  /// Output layout: {in-ball (0/1), distance, subtree sum, global sum (0 if
  /// the result flood did not reach this node)}.
  static constexpr std::size_t kOutInBall = 0;
  static constexpr std::size_t kOutDistance = 1;
  static constexpr std::size_t kOutSubtreeSum = 2;
  static constexpr std::size_t kOutGlobalSum = 3;

 private:
  NodeId root_;
  std::uint32_t radius_;
};

}  // namespace dasched
