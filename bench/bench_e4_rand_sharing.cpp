// E4 -- Lemma 4.3: sharing Theta(log^2 n) bits in every cluster in
// O(dilation log^2 n) rounds total, via Lenzen-style pipelining.
//
// The point of the lemma is the pipelining: s = Theta(log n) seed words per
// cluster are disseminated in H + Theta(s) rounds per layer instead of the
// naive H * s (one flood per word), and since the layers are independent all
// L layers' tokens share one pipeline: H + 3·L·s + slack token rounds for the
// whole precomputation instead of L·(H + 3s + slack). The tables report the
// pipelined cost against the naive one and against one run per layer, plus
// the completeness check (every node holds all of its center's words -- the
// property Lemma 4.4 builds on).
#include "bench_common.hpp"

#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/rand_sharing.hpp"

namespace dasched {
namespace {

Precomputation precompute(const Graph& g, const ClusteringConfig& ccfg,
                          RandSharingConfig scfg = {}) {
  scfg.seed = ccfg.seed;
  return RandomnessSharing(scfg).run_distributed(g, ClusteringBuilder(ccfg));
}

std::uint64_t total_rounds(const Precomputation& pre) {
  return pre.clustering.precomputation_rounds + pre.seeds.rounds;
}

void print_tables() {
  bench::experiment_banner("E4 (Lemma 4.3)",
                           "cluster-local randomness sharing: H + Theta(L s) token "
                           "rounds for all layers vs naive H*s per layer");

  Table table("E4.a -- pipelined vs naive dissemination (gnp, dilation = 4)");
  table.set_header({"n", "layers", "H", "s", "pipelined rounds", "naive H*s*layers",
                    "speedup", "complete"});
  for (const NodeId n : {64u, 128u, 256u, 512u}) {
    Rng rng(n);
    const auto g = make_gnp_connected(n, 6.0 / n, rng);
    ClusteringConfig ccfg;
    ccfg.seed = n;
    ccfg.dilation = 4;
    const auto pre = precompute(g, ccfg);
    const auto& seeds = pre.seeds;
    const std::uint64_t naive = static_cast<std::uint64_t>(pre.clustering.hop_cap) *
                                seeds.words_per_seed * pre.clustering.num_layers();
    table.add_row({Table::fmt(std::uint64_t{n}),
                   Table::fmt(std::uint64_t{pre.clustering.num_layers()}),
                   Table::fmt(std::uint64_t{pre.clustering.hop_cap}),
                   Table::fmt(std::uint64_t{seeds.words_per_seed}),
                   Table::fmt(seeds.rounds), Table::fmt(naive),
                   Table::fmt(static_cast<double>(naive) / seeds.rounds, 2),
                   seeds.all_complete() ? "yes" : "NO"});
  }
  bench::emit(table);

  Table t2("E4.b -- token rounds scale with L*s (grid 12x12, 4 layers)");
  t2.set_header({"s (words)", "token rounds", "token rounds - H", "complete"});
  const auto grid = make_grid(12, 12);
  ClusteringConfig gcfg;
  gcfg.seed = 5;
  gcfg.dilation = 4;
  gcfg.num_layers = 4;
  for (const std::uint32_t s : {2u, 4u, 8u, 16u}) {
    const auto pre = precompute(grid, gcfg, {.words_per_seed = s});
    t2.add_row({Table::fmt(std::uint64_t{s}), Table::fmt(pre.seeds.rounds),
                Table::fmt(pre.seeds.rounds - pre.clustering.hop_cap),
                pre.seeds.all_complete() ? "yes" : "NO"});
  }
  bench::emit(t2);

  // One layer's run is what each layer paid when every layer ran on its own;
  // the joint run pays the H-round pipeline latency and the tail once.
  Table t3("E4.c -- one run per layer (L = 1) vs one joint run (gnp, dilation = 4)");
  t3.set_header({"n", "layers", "L=1 rounds", "layers x (L=1)", "joint rounds", "saving",
                 "complete"});
  for (const NodeId n : {64u, 128u, 256u}) {
    Rng rng(n);
    const auto g = make_gnp_connected(n, 6.0 / n, rng);
    ClusteringConfig ccfg;
    ccfg.seed = n;
    ccfg.dilation = 4;
    const auto joint = precompute(g, ccfg);
    const std::uint64_t layers = joint.clustering.num_layers();
    ccfg.num_layers = 1;
    const auto single = precompute(g, ccfg);
    const std::uint64_t per_layer = layers * total_rounds(single);
    const bool complete = joint.seeds.all_complete() && single.seeds.all_complete();
    t3.add_row({Table::fmt(std::uint64_t{n}), Table::fmt(layers),
                Table::fmt(total_rounds(single)), Table::fmt(per_layer),
                Table::fmt(total_rounds(joint)),
                Table::fmt(static_cast<double>(per_layer) / total_rounds(joint), 2),
                complete ? "yes" : "NO"});
  }
  bench::emit(t3);
}

void bm_precompute(benchmark::State& state) {
  Rng rng(3);
  const auto g = make_gnp_connected(static_cast<NodeId>(state.range(0)), 0.05, rng);
  ClusteringConfig ccfg;
  ccfg.dilation = 4;
  ccfg.num_layers = 6;
  for (auto _ : state) {
    const auto pre = precompute(g, ccfg);
    benchmark::DoNotOptimize(pre.seeds.rounds);
  }
}
BENCHMARK(bm_precompute)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
