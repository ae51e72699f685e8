#include "congest/pattern.hpp"

#include <algorithm>
#include <utility>

#include "congest/schedule_table.hpp"
#include "util/check.hpp"

namespace dasched {

CommunicationPattern::CommunicationPattern(std::uint32_t num_directed_edges,
                                           std::vector<LoadCell> cells)
    : cells_(std::move(cells)), edge_load_(num_directed_edges, 0) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const LoadCell& cell = cells_[i];
    DASCHED_CHECK(cell.big_round >= 1);
    DASCHED_CHECK(cell.edge < num_directed_edges);
    DASCHED_CHECK(cell.load >= 1);
    DASCHED_CHECK_MSG(i == 0 || cells_[i - 1] < cell,
                      "pattern cells must be sorted by (round, edge), each once");
    edge_load_[cell.edge] += cell.load;
    total_ += cell.load;
  }
}

std::uint32_t CommunicationPattern::max_edge_load() const {
  std::uint32_t max_load = 0;
  for (const auto load : edge_load_) max_load = std::max(max_load, load);
  return max_load;
}

std::uint64_t simulation_violations(const Graph& g, const CommunicationPattern& pattern,
                                    const NodeRoundTime& time) {
  std::uint64_t violations = 0;
  for (const LoadCell& cell : pattern.cells()) {
    const std::uint32_t r = cell.big_round;
    const auto [lo, hi] = g.endpoints(cell.edge / 2);
    const NodeId sender = (cell.edge % 2 == 0) ? lo : hi;
    const NodeId receiver = (cell.edge % 2 == 0) ? hi : lo;
    const std::uint32_t sent = time(sender, r);
    const std::uint32_t consumed = time(receiver, r + 1);
    if (sent == kNeverScheduled) {
      // The sender never transmits a message the pattern requires: if the
      // receiver still executes the consuming round, causality is broken.
      if (consumed != kNeverScheduled) violations += cell.load;
      continue;
    }
    if (consumed != kNeverScheduled && consumed <= sent) violations += cell.load;
  }
  return violations;
}

}  // namespace dasched
