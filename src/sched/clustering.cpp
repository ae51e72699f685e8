#include "sched/clustering.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>

#include "congest/simulator.hpp"
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

std::uint32_t Clustering::best_radius(NodeId v) const {
  std::uint32_t best = 0;
  for (const auto& layer : layers) best = std::max(best, layer.h_prime[v]);
  return best;
}

ClusteringBuilder::ClusteringBuilder(ClusteringConfig cfg) : cfg_(cfg) {
  DASCHED_CHECK(cfg_.dilation >= 1);
  DASCHED_CHECK(cfg_.radius_factor > 0);
  DASCHED_CHECK(cfg_.truncation_lns > 0);
}

std::uint32_t ClusteringBuilder::resolved_layers(NodeId n) const {
  if (cfg_.num_layers > 0) return cfg_.num_layers;
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(cfg_.layer_factor * log_ceil_ln(n)));
}

namespace {

TruncatedExponentialRadius make_radius_dist(const ClusteringConfig& cfg, NodeId n) {
  const double scale = cfg.radius_factor * cfg.dilation;
  const double lns = std::max(1, log_ceil_ln(n));
  return {scale, cfg.truncation_lns * lns};
}

/// Layer-construction telemetry shared by the distributed and central builds:
/// cluster count and per-node contained-radius distribution.
void record_layer_metrics(TelemetrySink* telemetry, const ClusterLayer& layer) {
  if (telemetry == nullptr) return;
  std::vector<std::uint64_t> centers(layer.label);
  std::sort(centers.begin(), centers.end());
  const auto distinct =
      std::unique(centers.begin(), centers.end()) - centers.begin();
  telemetry->record_value("clustering.clusters_per_layer",
                          static_cast<double>(distinct));
  for (const auto h : layer.h_prime) {
    telemetry->record_value("clustering.h_prime", h);
  }
}

}  // namespace

void ClusteringBuilder::draw_node_params(Rng& rng, const TruncatedExponentialRadius& dist,
                                         NodeId node, std::uint32_t* radius,
                                         std::uint64_t* label) {
  *radius = dist.radius_from_unit(rng.next_double());
  // High 32 bits random, low 32 bits the node id: labels are distinct by
  // construction and uniform enough for the min-label argument.
  *label = ((rng() >> 32) << 32) | node;
}

// ---------------------------------------------------------------------------
// Distributed implementation (the Lemma 4.2 message-passing protocol).
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kTagLabelFlood = 1;
constexpr std::uint64_t kTagClusterLabel = 2;
constexpr std::uint64_t kTagBoundary = 3;

/// One clustering layer as a CONGEST algorithm.
///
/// Rounds 1..H:        min-label flood with fake initial hop-counts.
/// Round H+1:          every node announces its cluster label to neighbors.
/// Rounds H+2..H+1+Hb: boundary flood (BFS from all boundary nodes).
/// Output: {center label, h'}.
class ClusterLayerAlgorithm final : public DistributedAlgorithm {
 public:
  ClusterLayerAlgorithm(std::uint64_t base_seed, TruncatedExponentialRadius dist,
                        std::uint32_t hop_cap, std::uint32_t query_cap)
      : DistributedAlgorithm(base_seed),
        dist_(dist),
        hop_cap_(hop_cap),
        query_cap_(query_cap) {}

  std::string name() const override { return "cluster-layer"; }
  /// Widest message is a {tag, label} pair.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 2;
    return f;
  }
  std::uint32_t rounds() const override { return hop_cap_ + 1 + query_cap_; }
  std::unique_ptr<NodeProgram> make_program(NodeId node) const override;

  const TruncatedExponentialRadius& dist() const { return dist_; }
  std::uint32_t hop_cap() const { return hop_cap_; }
  std::uint32_t query_cap() const { return query_cap_; }

 private:
  TruncatedExponentialRadius dist_;
  std::uint32_t hop_cap_;   // H
  std::uint32_t query_cap_; // Hb: h' is learned up to this radius
};

class ClusterLayerProgram final : public NodeProgram {
 public:
  explicit ClusterLayerProgram(const ClusterLayerAlgorithm& algo) : algo_(algo) {}

  void on_round(VirtualContext& ctx) override {
    const std::uint32_t i = ctx.vround();
    const std::uint32_t h = algo_.hop_cap();

    if (i == 1) init(ctx);

    if (i <= h) {
      absorb_label_flood(ctx);
      // Forward the smallest eligible label not dominated by what we already
      // sent ("the message with hop-count i that has the smallest label among
      // the messages of hop-count i or smaller").
      auto it = candidates_.begin();
      while (it != candidates_.end()) {
        if (it->first >= last_sent_) {
          it = candidates_.erase(it);  // dominated by an already-sent label
          continue;
        }
        if (it->second <= i) break;  // eligible (ripe) and minimal
        ++it;
      }
      if (it != candidates_.end()) {
        const std::uint64_t label = it->first;
        candidates_.erase(it);  // smaller not-yet-ripe candidates stay pending
        last_sent_ = label;
        for (const auto& nb : ctx.neighbors()) {
          ctx.send(nb.neighbor, {kTagLabelFlood, label});
        }
      }
      return;
    }

    if (i == h + 1) {
      absorb_label_flood(ctx);  // messages from wire round H
      for (const auto& nb : ctx.neighbors()) {
        ctx.send(nb.neighbor, {kTagClusterLabel, min_label_});
      }
      return;
    }

    // Boundary phase.
    absorb_boundary(ctx);
    if (i == h + 2 && is_boundary_ && algo_.query_cap() >= 1) {
      for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, {kTagBoundary});
      boundary_forwarded_ = true;
    } else if (boundary_dist_known_ && !boundary_forwarded_ &&
               i == algo_.hop_cap() + 2 + boundary_dist_ &&
               boundary_dist_ + 1 <= algo_.query_cap()) {
      for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, {kTagBoundary});
      boundary_forwarded_ = true;
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb_boundary(ctx); }

  std::vector<std::uint64_t> output() const override {
    std::uint32_t h_prime;
    if (is_boundary_) {
      h_prime = 0;
    } else if (boundary_dist_known_) {
      h_prime = boundary_dist_;
    } else {
      h_prime = algo_.query_cap();  // no boundary within the query radius
    }
    return {min_label_, h_prime};
  }

 private:
  void init(VirtualContext& ctx) {
    std::uint32_t radius;
    ClusteringBuilder::draw_node_params(ctx.rng(), algo_.dist(), ctx.self(), &radius,
                                        &own_label_);
    min_label_ = own_label_;
    // Fake initial hop-count H - r(v): the own message becomes ripe at round
    // H - r(v) + 1.
    const std::uint32_t eligible_from = algo_.hop_cap() - radius + 1;
    candidates_.emplace(own_label_, eligible_from);
  }

  void absorb_label_flood(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      DASCHED_DCHECK(m.payload.at(0) == kTagLabelFlood);
      const std::uint64_t label = m.payload.at(1);
      min_label_ = std::min(min_label_, label);
      if (label < last_sent_) {
        // Ripe immediately: held hop == absorb round - 1.
        const auto [it, inserted] = candidates_.emplace(label, ctx.vround());
        if (!inserted) it->second = std::min(it->second, ctx.vround());
      }
    }
  }

  void absorb_boundary(VirtualContext& ctx) {
    const std::uint32_t h = algo_.hop_cap();
    for (const auto& m : ctx.inbox()) {
      const std::uint64_t tag = m.payload.at(0);
      if (tag == kTagClusterLabel) {
        if (m.payload.at(1) != min_label_) is_boundary_ = true;
      } else if (tag == kTagBoundary) {
        if (!is_boundary_ && !boundary_dist_known_) {
          boundary_dist_known_ = true;
          boundary_dist_ = ctx.vround() - (h + 2);  // hop count of the flood
        }
      } else {
        DASCHED_DCHECK(tag == kTagLabelFlood);
      }
    }
  }

  const ClusterLayerAlgorithm& algo_;
  std::uint64_t own_label_ = 0;
  std::uint64_t min_label_ = ~std::uint64_t{0};
  std::uint64_t last_sent_ = ~std::uint64_t{0};
  std::map<std::uint64_t, std::uint32_t> candidates_;  // label -> eligible round
  bool is_boundary_ = false;
  bool boundary_dist_known_ = false;
  bool boundary_forwarded_ = false;
  std::uint32_t boundary_dist_ = 0;
};

std::unique_ptr<NodeProgram> ClusterLayerAlgorithm::make_program(NodeId) const {
  return std::make_unique<ClusterLayerProgram>(*this);
}

}  // namespace

Clustering ClusteringBuilder::build_distributed(const Graph& g) const {
  const auto dist = make_radius_dist(cfg_, g.num_nodes());
  const std::uint32_t h = dist.max_radius() + 1;
  const std::uint32_t layers = resolved_layers(g.num_nodes());

  Clustering result;
  result.hop_cap = h;
  result.radius_query_cap = cfg_.dilation;
  result.radius_scale = dist.scale();
  result.radius_truncation_logs =
      cfg_.truncation_lns * std::max(1, log_ceil_ln(g.num_nodes()));
  TimedSpan build_span(cfg_.telemetry, "clustering", "build_distributed");
  build_span.arg("layers", layers);
  build_span.arg("hop_cap", h);
  SoloRunner runner(g);
  for (std::uint32_t l = 0; l < layers; ++l) {
    TimedSpan layer_span(cfg_.telemetry, "clustering", "layer");
    layer_span.arg("layer", l);
    ClusterLayerAlgorithm algo(layer_seed(cfg_.seed, l), dist, h, cfg_.dilation);
    const auto outputs = runner.outputs(algo);
    result.precomputation_rounds += algo.rounds();
    if (cfg_.telemetry != nullptr) {
      cfg_.telemetry->add_counter("clustering.rounds", algo.rounds());
      layer_span.arg("rounds", algo.rounds());
    }

    ClusterLayer layer;
    layer.center.resize(g.num_nodes());
    layer.label.resize(g.num_nodes());
    layer.h_prime.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::uint64_t label = outputs[v][0];
      layer.label[v] = label;
      layer.center[v] = static_cast<NodeId>(label & 0xffffffffu);
      layer.h_prime[v] = static_cast<std::uint32_t>(outputs[v][1]);
    }
    record_layer_metrics(cfg_.telemetry, layer);
    result.layers.push_back(std::move(layer));
  }
  return result;
}

Clustering ClusteringBuilder::build_central(const Graph& g) const {
  const auto dist = make_radius_dist(cfg_, g.num_nodes());
  const std::uint32_t h = dist.max_radius() + 1;
  const std::uint32_t layers = resolved_layers(g.num_nodes());
  const NodeId n = g.num_nodes();

  Clustering result;
  result.hop_cap = h;
  result.radius_query_cap = cfg_.dilation;
  result.radius_scale = dist.scale();
  result.radius_truncation_logs =
      cfg_.truncation_lns * std::max(1, log_ceil_ln(g.num_nodes()));
  result.precomputation_rounds = 0;

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
    record_layer_metrics(cfg_.telemetry, layer);
    result.layers.push_back(std::move(layer));
  }
  return result;
}

}  // namespace dasched
