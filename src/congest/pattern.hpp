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

}  // namespace dasched
