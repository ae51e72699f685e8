// Declarative static footprints: what an algorithm is willing to reveal
// about its communication pattern *without being executed*.
//
// Every bound in the paper is a function of congestion and dilation of the
// algorithms' patterns (Section 2, Figure 1), yet the model itself insists
// the pattern is not known a priori -- BFS is the canonical example. This
// struct is the middle ground the repo's static analyzer (src/analysis)
// builds on: an algorithm *declares* the shape of its footprint as data, and
// the analyzer derives the full per-(round, directed-edge) load surface --
// or a sound envelope -- from the declaration plus the graph, by abstract
// interpretation over the time-expanded graph. Three tiers:
//
//   exact      kFlood, kThreePhaseAggregate, kGossipPush, kFixedPath: the
//              pattern (and the per-node outputs) is a pure function of
//              (graph, declaration, base seed). Gossip qualifies because the
//              paper fixes each node's randomness at start ("we consider
//              [it] as a part of the input"), so the random pattern is
//              replayable centrally from the seed.
//   envelope   kEnvelope: randomized algorithms (Luby MIS) whose pattern
//              varies but is bounded: at most one message per (round,
//              directed edge) cell and at most `per_edge_cap` messages per
//              directed edge in total.
//   fallback   kOpaque: nothing declared; the analyzer assumes the CONGEST
//              worst case (every directed edge, every round).
//
// The declaration is pure data -- algorithms carry no derivation logic, and
// the analyzer never constructs programs. docs/ANALYSIS.md is the narrative.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dasched {

struct StaticFootprint {
  enum class Shape : std::uint8_t {
    kOpaque = 0,           // fallback: conservative whole-bandwidth bound
    kFlood,                // broadcast/BFS token flood from `source`
    kThreePhaseAggregate,  // flood + timed convergecast + result flood
    kGossipPush,           // seeded push gossip from `source`
    kFixedPath,            // one packet along `path`
    kEnvelope,             // randomized, bounded by `per_edge_cap`
  };

  /// Which exact per-node output rule accompanies the shape (kNone for
  /// envelope/opaque footprints: outputs stay execution-only).
  enum class Outputs : std::uint8_t {
    kNone = 0,
    kBroadcast,    // {received, value, dist}
    kBfs,          // {reached, dist, min-id parent}
    kAggregate,    // {in-ball, dist, subtree sum, global sum}
    kGossip,       // {informed, rumor, informed round}
    kPathRouting,  // destination {delivered, value}; others {}
  };

  /// Sentinel for max_payload_words: the algorithm declines to bound its
  /// payload width, so the executor must assume the full CONGEST word budget
  /// (kMaxPayloadWords). It is above every width, so the run width is
  /// the plain maximum over the algorithms, clamped to the budget.
  static constexpr std::uint32_t kUndeclaredWidth = ~std::uint32_t{0};

  Shape shape = Shape::kOpaque;
  Outputs outputs = Outputs::kNone;
  NodeId source = kInvalidNode;    // flood / aggregate root / gossip source
  std::uint32_t radius = 0;        // kThreePhaseAggregate: the h in 3h+1 rounds
  std::uint32_t per_edge_cap = 0;  // kEnvelope: per-directed-edge total bound
  std::uint64_t payload = 0;       // broadcast value / rumor / packet value
  /// Upper bound on the payload words any single message of this algorithm
  /// carries, or kUndeclaredWidth. When *every* admitted algorithm declares a
  /// width, the executor sizes its compact delivery lanes to the maximum
  /// declared width instead of the full word budget -- bytes moved per
  /// message drop accordingly (docs/PERFORMANCE.md). Independent of shape:
  /// an opaque footprint may still bound its width.
  std::uint32_t max_payload_words = kUndeclaredWidth;
  // kFixedPath: consecutive adjacent nodes.
  // perf-ok: declaration-time descriptor built once per algorithm, not hot.
  std::vector<NodeId> path;

  static StaticFootprint opaque() { return {}; }

  static StaticFootprint flood(NodeId source, Outputs outputs, std::uint64_t payload = 0) {
    StaticFootprint f;
    f.shape = Shape::kFlood;
    f.outputs = outputs;
    f.source = source;
    f.payload = payload;
    f.max_payload_words = 1;  // a flooded token is one word
    return f;
  }

  static StaticFootprint three_phase_aggregate(NodeId root, std::uint32_t radius) {
    StaticFootprint f;
    f.shape = Shape::kThreePhaseAggregate;
    f.outputs = Outputs::kAggregate;
    f.source = root;
    f.radius = radius;
    f.max_payload_words = 2;  // convergecast rows carry {tag, value}
    return f;
  }

  static StaticFootprint gossip_push(NodeId source, std::uint64_t rumor) {
    StaticFootprint f;
    f.shape = Shape::kGossipPush;
    f.outputs = Outputs::kGossip;
    f.source = source;
    f.payload = rumor;
    f.max_payload_words = 1;  // the rumor itself
    return f;
  }

  static StaticFootprint fixed_path(std::vector<NodeId> path, std::uint64_t packet_value) {
    StaticFootprint f;
    f.shape = Shape::kFixedPath;
    f.outputs = Outputs::kPathRouting;
    f.path = std::move(path);
    f.payload = packet_value;
    f.max_payload_words = 1;  // the packet value
    return f;
  }

  static StaticFootprint envelope(std::uint32_t per_edge_cap,
                                  std::uint32_t max_payload_words = kUndeclaredWidth) {
    StaticFootprint f;
    f.shape = Shape::kEnvelope;
    f.per_edge_cap = per_edge_cap;
    f.max_payload_words = max_payload_words;
    return f;
  }
};

}  // namespace dasched
