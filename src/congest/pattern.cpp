#include "congest/pattern.hpp"

#include <algorithm>
#include <utility>

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

}  // namespace dasched
