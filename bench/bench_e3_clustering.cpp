// E3 -- Lemma 4.2: ball-carving clustering with private randomness.
//
// For each network size, reports the lemma's four properties as measured on
// the *distributed* protocol (the clustering folded into Lemma 4.3's sharing
// run, one CONGEST run for all layers):
//   (1) disjointness holds by construction (every node joins one cluster),
//   (2) weak diameter: max node-to-center distance <= hop cap H = O(D log n),
//   (3) coverage: the empirical per-layer probability that a node's
//       dilation-ball lies inside one cluster (the paper: constant), and the
//       resulting #covering layers out of Theta(log n),
//   (4) the whole pre-computation's rounds (clustering and sharing), against
//       the O(dilation log^2 n) budget.
#include "bench_common.hpp"

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"
#include "util/stats.hpp"

namespace dasched {
namespace {

void print_tables() {
  bench::experiment_banner("E3 (Lemma 4.2)",
                           "Theta(log n) clustering layers, weak diameter O(D log n), "
                           "constant per-layer coverage, O(D log^2 n) rounds");

  const std::uint32_t dilation = 4;
  {
    Table table("E3.a -- scaling n (gnp, dilation = 4, distributed protocol)");
    table.set_header({"n", "layers", "H", "pre-rounds", "rounds/(D ln^2 n)",
                      "per-layer cov", "min cov layers", "max ctr dist"});
    for (const NodeId n : {64u, 128u, 256u, 512u}) {
      Rng rng(n);
      const auto g = make_gnp_connected(n, 6.0 / n, rng);
      ClusteringConfig cfg;
      cfg.seed = n;
      cfg.dilation = dilation;
      const auto pre =
          RandomnessSharing({.seed = cfg.seed}).run_distributed(g, ClusteringBuilder(cfg));
      const Clustering& clustering = pre.clustering;
      const std::uint64_t rounds = clustering.precomputation_rounds + pre.seeds.rounds;

      StatAccumulator cov;
      std::uint32_t min_cov = ~0u;
      for (NodeId v = 0; v < n; ++v) {
        const auto c = clustering.coverage(v, dilation);
        cov.add(static_cast<double>(c) / clustering.num_layers());
        min_cov = std::min(min_cov, c);
      }
      // Weak diameter: max distance from node to its cluster center.
      std::uint32_t max_dist = 0;
      for (const auto& layer : clustering.layers) {
        for (NodeId v = 0; v < n; ++v) {
          const auto d = bfs_distances(g, layer.center[v]);
          max_dist = std::max(max_dist, d[v]);
        }
      }
      const double ln = std::log(static_cast<double>(n));
      table.add_row({Table::fmt(std::uint64_t{n}),
                     Table::fmt(std::uint64_t{clustering.num_layers()}),
                     Table::fmt(std::uint64_t{clustering.hop_cap}),
                     Table::fmt(rounds), Table::fmt(rounds / (dilation * ln * ln), 2),
                     Table::fmt(cov.mean(), 3), Table::fmt(std::uint64_t{min_cov}),
                     Table::fmt(std::uint64_t{max_dist})});
    }
    bench::emit(table);
  }

  {
    Table table("E3.b -- coverage probability vs radius scale (n = 256, 100 layers)");
    table.set_header({"radius_factor", "H", "per-layer coverage", "min node coverage"});
    Rng rng(256);
    const auto g = make_gnp_connected(256, 6.0 / 256, rng);
    for (const double rf : {1.0, 2.0, 3.0, 4.0}) {
      ClusteringConfig cfg;
      cfg.seed = 9;
      cfg.dilation = dilation;
      cfg.radius_factor = rf;
      cfg.num_layers = 100;
      const auto clustering = ClusteringBuilder(cfg).build_central(g);
      StatAccumulator cov;
      double min_cov = 1.0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const double c =
            static_cast<double>(clustering.coverage(v, dilation)) / clustering.num_layers();
        cov.add(c);
        min_cov = std::min(min_cov, c);
      }
      table.add_row({Table::fmt(rf, 1), Table::fmt(std::uint64_t{clustering.hop_cap}),
                     Table::fmt(cov.mean(), 3), Table::fmt(min_cov, 3)});
    }
    bench::emit(table);
  }
}

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
