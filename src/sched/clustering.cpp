#include "sched/clustering.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "graph/algorithms.hpp"
#include "util/math.hpp"

namespace dasched {

std::uint32_t Clustering::coverage(NodeId v, std::uint32_t radius) const {
  std::uint32_t count = 0;
  for (const auto& layer : layers) {
    if (layer.h_prime[v] >= radius) ++count;
  }
  return count;
}

ClusteringBuilder::ClusteringBuilder(ClusteringConfig cfg) : cfg_(cfg) {
  DASCHED_CHECK(cfg_.dilation >= 1);
  DASCHED_CHECK(cfg_.radius_factor > 0);
}

std::uint32_t ClusteringBuilder::resolved_layers(NodeId n) const {
  if (cfg_.num_layers > 0) return cfg_.num_layers;
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(2.0 * log_ceil_ln(n)));
}

void ClusterLayer::record_metrics(TelemetrySink* telemetry) const {
  if (telemetry == nullptr) return;
  std::vector<std::uint64_t> centers(label);
  std::sort(centers.begin(), centers.end());
  const auto distinct =
      std::unique(centers.begin(), centers.end()) - centers.begin();
  telemetry->record_value("clustering.clusters_per_layer",
                          static_cast<double>(distinct));
  for (const auto h : h_prime) telemetry->record_value("clustering.h_prime", h);
}

void ClusteringBuilder::draw_node_params(Rng& rng, const TruncatedExponentialRadius& dist,
                                         NodeId node, std::uint32_t* radius,
                                         std::uint64_t* label) {
  *radius = dist.radius_from_unit(rng.next_double());
  // High 32 bits random, low 32 bits the node id: labels are distinct by
  // construction and uniform enough for the min-label argument.
  *label = ((rng() >> 32) << 32) | node;
}

Clustering ClusteringBuilder::frame(const Graph& g) const {
  Clustering result;
  result.radius_scale = cfg_.radius_factor * cfg_.dilation;
  // Radii are truncated at R * 2 ln(n).
  result.radius_truncation_logs = 2.0 * std::max(1, log_ceil_ln(g.num_nodes()));
  result.hop_cap = result.radius_distribution_for_replay().max_radius() + 1;
  result.radius_query_cap = cfg_.dilation;
  return result;
}

Clustering ClusteringBuilder::build_central(const Graph& g) const {
  const std::uint32_t layers = resolved_layers(g.num_nodes());
  const NodeId n = g.num_nodes();
  Clustering result = frame(g);
  const auto dist = result.radius_distribution_for_replay();

  TimedSpan build_span(cfg_.telemetry, "clustering", "build_central");
  build_span.arg("layers", layers);
  for (std::uint32_t l = 0; l < layers; ++l) {
    // Reproduce the distributed draws: program rng is
    // Rng(seed_combine(layer_seed, node)), drawing (radius, label) first.
    const std::uint64_t lseed = layer_seed(cfg_.seed, l);
    std::vector<std::uint32_t> radius(n);
    std::vector<std::uint64_t> label(n);
    for (NodeId v = 0; v < n; ++v) {
      Rng rng(seed_combine(lseed, v));
      ClusteringBuilder::draw_node_params(rng, dist, v, &radius[v], &label[v]);
    }

    // Assign each node the minimum label among balls containing it: process
    // centers in ascending label order, claim unassigned nodes in B(u, r(u)).
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return label[a] < label[b]; });

    ClusterLayer layer;
    layer.center.assign(n, kInvalidNode);
    layer.label.assign(n, ~std::uint64_t{0});
    layer.h_prime.assign(n, 0);
    for (const NodeId u : order) {
      const auto d = bfs_distances_capped(g, u, radius[u]);
      for (NodeId v = 0; v < n; ++v) {
        if (d[v] != kUnreachable && layer.center[v] == kInvalidNode) {
          layer.center[v] = u;
          layer.label[v] = label[u];
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) DASCHED_CHECK(layer.center[v] != kInvalidNode);

    // h': multi-source BFS from boundary nodes, capped at the query radius.
    std::vector<std::uint32_t> dist_to_boundary(n, kUnreachable);
    std::queue<NodeId> queue;
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& nb : g.neighbors(v)) {
        if (layer.center[nb.neighbor] != layer.center[v]) {
          dist_to_boundary[v] = 0;
          queue.push(v);
          break;
        }
      }
    }
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop();
      for (const auto& nb : g.neighbors(v)) {
        if (dist_to_boundary[nb.neighbor] == kUnreachable) {
          dist_to_boundary[nb.neighbor] = dist_to_boundary[v] + 1;
          queue.push(nb.neighbor);
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      layer.h_prime[v] = std::min(dist_to_boundary[v], cfg_.dilation);
    }
    layer.record_metrics(cfg_.telemetry);
    result.layers.push_back(std::move(layer));
  }
  return result;
}

}  // namespace dasched
