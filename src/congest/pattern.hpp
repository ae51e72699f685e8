// Communication patterns (Section 2, Figure 1 of the paper).
//
// The communication pattern of a T-round algorithm is the subgraph of the
// time-expanded graph G x [T] consisting of the (round, directed edge) pairs
// on which the algorithm sends a message. Patterns capture the *footprint*
// of an algorithm, not message content; `congestion` and `dilation` -- the
// two parameters every bound in the paper is stated in -- are functions of
// the patterns alone.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/load_cells.hpp"

namespace dasched {

class CommunicationPattern {
 public:
  CommunicationPattern() = default;
  /// The pattern whose load surface is `cells`: sorted by (round, edge),
  /// each (round, edge) at most once, rounds 1-based (virtual rounds), loads
  /// >= 1 and edges < `num_directed_edges`. Checked; no cells is the empty
  /// pattern.
  CommunicationPattern(std::uint32_t num_directed_edges, std::vector<LoadCell> cells);

  /// Largest round containing a message (0 if the pattern is empty).
  std::uint32_t last_message_round() const {
    return cells_.empty() ? 0 : cells_.back().big_round;
  }

  std::uint64_t total_messages() const { return total_; }

  std::uint32_t edge_load(std::uint32_t directed_edge) const {
    return edge_load_[directed_edge];
  }

  /// Max load over directed edges: this pattern's contribution to congestion.
  std::uint32_t max_edge_load() const;

  std::uint32_t num_directed_edges() const {
    return static_cast<std::uint32_t>(edge_load_.size());
  }

  /// The pattern's load surface: one cell per (round, directed edge) pair
  /// that carries a message, sorted by (round, edge).
  std::span<const LoadCell> cells() const { return cells_; }

 private:
  std::vector<LoadCell> cells_;           // perf-ok: built once per profile
  std::vector<std::uint32_t> edge_load_;  // perf-ok: per directed edge, sized once
  std::uint64_t total_ = 0;
};

/// Big-round assignment for a node's virtual rounds (Section 2's simulation
/// mapping f, restricted to lockstep-per-node schedules): returns the
/// big-round in which node v executes virtual round r, or kNeverScheduled.
using NodeRoundTime =
    std::function<std::uint32_t(NodeId v, std::uint32_t vround)>;

/// Checks that a schedule is a valid *simulation* of the pattern in the
/// paper's Section 2 sense: causal precedence is preserved, i.e. every
/// message (u -> v, sent in round r) is transmitted strictly before the
/// receiver executes round r+1 (where it consumes the message). Returns the
/// number of violated message constraints; 0 means the mapping is a
/// simulation. Never-scheduled consumer rounds impose no constraint (the
/// receiver truncated its execution), matching Lemma 4.4's discard rule.
std::uint64_t simulation_violations(const Graph& g, const CommunicationPattern& pattern,
                                    const NodeRoundTime& time);

}  // namespace dasched
