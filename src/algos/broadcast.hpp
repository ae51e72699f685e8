// h-hop broadcast (item (I) in the paper's introduction).
//
// The source floods a value; every node forwards it to all neighbors exactly
// once. A node at distance q from the source receives the value in virtual
// round q and forwards in round q+1 (if q+1 <= h). Running k of these at once
// is the classical "k-broadcast" workload whose O(k + h) pipelining the paper
// cites [36] -- our Theorem 1.1 scheduler reproduces that additive behaviour
// up to the log factor.
#pragma once

#include <cstdint>

#include "congest/program.hpp"

namespace dasched {

class BroadcastAlgorithm final : public DistributedAlgorithm {
 public:
  BroadcastAlgorithm(NodeId source, std::uint32_t max_hops, std::uint64_t value,
                     std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed),
        source_(source),
        max_hops_(max_hops),
        value_(value) {
    DASCHED_CHECK(max_hops >= 1);
  }

  std::string name() const override { return "broadcast"; }
  std::uint32_t rounds() const override { return max_hops_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  StaticFootprint static_footprint() const override {
    return StaticFootprint::flood(source_, StaticFootprint::Outputs::kBroadcast, value_);
  }

  NodeId source() const { return source_; }
  std::uint64_t value() const { return value_; }

  /// Output layout: {received (0/1), value, hop distance (or ~0 if not reached)}.
  static constexpr std::size_t kOutReceived = 0;
  static constexpr std::size_t kOutValue = 1;
  static constexpr std::size_t kOutDistance = 2;

 private:
  NodeId source_;
  std::uint32_t max_hops_;
  std::uint64_t value_;
};

}  // namespace dasched
