// Centralized graph algorithms.
//
// These are *oracles*: the distributed algorithms in src/algos are validated
// against them, and experiment harnesses use them to compute ground-truth
// distances and diameters. The MST oracle lives with its tests
// (tests/kruskal.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace dasched {

inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Hop distances from `source` to every node (kUnreachable if disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// BFS distances capped at `max_hops` (nodes farther away get kUnreachable).
std::vector<std::uint32_t> bfs_distances_capped(const Graph& g, NodeId source,
                                                std::uint32_t max_hops);

/// Eccentricity of `source` (max finite BFS distance); graph must be connected.
std::uint32_t eccentricity(const Graph& g, NodeId source);

/// Exact diameter via n BFS runs. O(n * m) -- fine for simulator-scale graphs.
std::uint32_t exact_diameter(const Graph& g);

}  // namespace dasched
