#include "algos/path_routing.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace dasched {

namespace {

class PathRoutingProgram final : public NodeProgram {
 public:
  /// `position` is the node's index on the path, or kNever if off-path; the
  /// same node may appear only once (paths are simple).
  PathRoutingProgram(std::uint32_t position, NodeId next_hop, bool is_source,
                     bool is_destination, std::uint64_t value)
      : position_(position),
        next_hop_(next_hop),
        is_source_(is_source),
        is_destination_(is_destination),
        value_(value) {
    if (is_source_) has_packet_ = true;  // the source holds the packet at start
  }

  static constexpr std::uint32_t kOffPath = ~std::uint32_t{0};

  void on_round(VirtualContext& ctx) override {
    if (position_ == kOffPath) return;
    absorb(ctx);
    if (ctx.vround() == position_ + 1 && has_packet_ && !is_destination_) {
      ctx.send(next_hop_, {value_});
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    if (is_destination_) {
      words.insert(words.end(), {has_packet_ ? 1ULL : 0ULL, has_packet_ ? value_ : 0ULL});
    }
  }

 private:
  void absorb(VirtualContext& ctx) {
    if (is_source_ || has_packet_ || position_ == kOffPath) return;
    // The packet arrives from position_-1, sent in round position_.
    if (ctx.vround() == position_ + 1 && !ctx.inbox().empty()) {
      has_packet_ = true;
      value_ = ctx.inbox().front().payload.at(0);
    }
  }

  std::uint32_t position_;
  NodeId next_hop_;
  bool is_source_;
  bool is_destination_;
  bool has_packet_ = false;
  std::uint64_t value_ = 0;
};

}  // namespace

PathRoutingAlgorithm::PathRoutingAlgorithm(std::vector<NodeId> path,
                                           std::uint64_t packet_value,
                                           std::uint64_t base_seed)
    : DistributedAlgorithm(base_seed), path_(std::move(path)), packet_value_(packet_value) {
  DASCHED_CHECK_MSG(path_.size() >= 2, "path must have at least one edge");
  for (std::size_t i = 0; i < path_.size(); ++i) {
    for (std::size_t j = i + 1; j < path_.size(); ++j) {
      DASCHED_CHECK_MSG(path_[i] != path_[j], "routing path must be simple");
    }
  }
}

NodeProgram& PathRoutingAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  std::uint32_t position = PathRoutingProgram::kOffPath;
  NodeId next_hop = kInvalidNode;
  for (std::size_t i = 0; i < path_.size(); ++i) {
    if (path_[i] == node) {
      position = static_cast<std::uint32_t>(i);
      if (i + 1 < path_.size()) next_hop = path_[i + 1];
      break;
    }
  }
  const bool is_source = position == 0;
  const bool is_destination =
      position != PathRoutingProgram::kOffPath && position + 1 == path_.size();
  // Source "has" the packet from the start.
  return arena.make<PathRoutingProgram>(position, next_hop, is_source, is_destination,
                                        packet_value_);
}

std::vector<std::unique_ptr<PathRoutingAlgorithm>> make_random_routing_instance(
    const Graph& g, std::size_t num_packets, Rng& rng, std::uint64_t seed_base) {
  std::vector<std::unique_ptr<PathRoutingAlgorithm>> packets;
  packets.reserve(num_packets);
  for (std::size_t p = 0; p < num_packets; ++p) {
    NodeId src = 0;
    NodeId dst = 0;
    while (src == dst) {
      src = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      dst = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    }
    // Shortest path via BFS from dst: walk from src downhill, smallest-id
    // neighbor first (deterministic).
    const auto dist = bfs_distances(g, dst);
    DASCHED_CHECK(dist[src] != kUnreachable);
    std::vector<NodeId> path{src};
    NodeId cur = src;
    while (cur != dst) {
      NodeId next = kInvalidNode;
      for (const auto& h : g.neighbors(cur)) {
        if (dist[h.neighbor] + 1 == dist[cur]) {
          next = h.neighbor;
          break;  // neighbors sorted by id
        }
      }
      DASCHED_CHECK(next != kInvalidNode);
      path.push_back(next);
      cur = next;
    }
    packets.push_back(std::make_unique<PathRoutingAlgorithm>(
        std::move(path), splitmix64(seed_base + p), seed_combine(seed_base, p)));
  }
  return packets;
}

}  // namespace dasched
