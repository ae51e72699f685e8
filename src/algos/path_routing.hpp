// Store-and-forward packet routing along a fixed path -- the LMR workload
// (item (III) in the paper's introduction, Leighton-Maggs-Rao [22]).
//
// One algorithm routes one packet: the node at path position i receives the
// packet in round i and forwards it to position i+1 in round i+1. dilation of
// a routing instance is the longest path length and congestion is the maximum
// number of paths through a directed edge -- exactly the parameters of [22].
// E9 schedules many of these to recover the O(congestion + dilation log n)
// random-delay bound that the paper's Theorem 1.1 generalizes.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dasched {

class PathRoutingAlgorithm final : public DistributedAlgorithm {
 public:
  /// `path` lists consecutive adjacent nodes, source first. Adjacency is the
  /// caller's responsibility (the executor rejects non-neighbor sends).
  PathRoutingAlgorithm(std::vector<NodeId> path, std::uint64_t packet_value,
                       std::uint64_t base_seed);

  std::string name() const override { return "path-routing"; }
  std::uint32_t rounds() const override {
    return static_cast<std::uint32_t>(path_.size()) - 1;
  }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  StaticFootprint static_footprint() const override {
    return StaticFootprint::fixed_path(path_, packet_value_);
  }

  const std::vector<NodeId>& path() const { return path_; }

  /// Destination output: {delivered (0/1), packet value}; all other nodes
  /// output {}.
  static constexpr std::size_t kOutDelivered = 0;
  static constexpr std::size_t kOutValue = 1;

 private:
  std::vector<NodeId> path_;
  std::uint64_t packet_value_;
};

/// Generates a routing instance: `num_packets` packets between random
/// source/destination pairs, each along a shortest path (BFS, deterministic
/// tie-break). Returns one algorithm per packet.
std::vector<std::unique_ptr<PathRoutingAlgorithm>> make_random_routing_instance(
    const Graph& g, std::size_t num_packets, Rng& rng, std::uint64_t seed_base);

}  // namespace dasched
