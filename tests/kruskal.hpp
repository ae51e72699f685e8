// Central MST oracle for the MST tests: the distributed MST (src/algos/mst)
// is checked against it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dasched {

/// Kruskal MST for edge weights w (w.size() == g.num_edges()); returns the
/// set of chosen edge ids sorted ascending. Graph must be connected and
/// weights must be distinct for a unique MST (checked).
std::vector<EdgeId> kruskal_mst(const Graph& g, const std::vector<std::uint64_t>& weights);

/// Total weight of an edge set.
std::uint64_t total_weight(const std::vector<EdgeId>& edges,
                           const std::vector<std::uint64_t>& weights);

}  // namespace dasched
