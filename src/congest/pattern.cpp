#include "congest/pattern.hpp"

#include <algorithm>

#include "congest/executor.hpp"

#include "util/check.hpp"

namespace dasched {

void CommunicationPattern::record(std::uint32_t round, std::uint32_t directed_edge) {
  DASCHED_CHECK(round >= 1);
  DASCHED_CHECK(directed_edge < edge_load_.size());
  if (round > by_round_.size()) by_round_.resize(round);
  by_round_[round - 1].push_back(directed_edge);
  ++edge_load_[directed_edge];
  ++total_;
}

std::uint32_t CommunicationPattern::max_edge_load() const {
  std::uint32_t max_load = 0;
  for (const auto load : edge_load_) max_load = std::max(max_load, load);
  return max_load;
}

std::span<const std::uint32_t> CommunicationPattern::edges_in_round(
    std::uint32_t round) const {
  DASCHED_CHECK(round >= 1);
  if (round > by_round_.size()) return {};
  return by_round_[round - 1];
}

std::vector<LoadCell> CommunicationPattern::cells() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(total_);
  for (std::uint32_t r = 1; r <= by_round_.size(); ++r) {
    for (const auto d : by_round_[r - 1]) keys.push_back(cell_key(r, d));
  }
  std::vector<LoadCell> out;
  count_cells(keys, out);
  return out;
}

std::uint64_t simulation_violations(const Graph& g, const CommunicationPattern& pattern,
                                    const NodeRoundTime& time) {
  std::uint64_t violations = 0;
  for (std::uint32_t r = 1; r <= pattern.last_message_round(); ++r) {
    for (const auto d : pattern.edges_in_round(r)) {
      const EdgeId e = d / 2;
      const auto [lo, hi] = g.endpoints(e);
      const NodeId sender = (d % 2 == 0) ? lo : hi;
      const NodeId receiver = (d % 2 == 0) ? hi : lo;
      const std::uint32_t sent = time(sender, r);
      const std::uint32_t consumed = time(receiver, r + 1);
      if (sent == kNeverScheduled) {
        // The sender never transmits a message the pattern requires: if the
        // receiver still executes the consuming round, causality is broken.
        if (consumed != kNeverScheduled) ++violations;
        continue;
      }
      if (consumed != kNeverScheduled && consumed <= sent) ++violations;
    }
  }
  return violations;
}

}  // namespace dasched
