// E6 -- Lemma 4.4 ablation: the nonuniform block delay distribution plus
// first-copy-wins de-duplication is what turns O((C + D) log n) into
// O(C + D log n).
//
// Same clustering, same seeds, three delay regimes:
//   block + dedup        -- the paper's Lemma 4.4 (support ~C/log n big-rounds),
//   uniform(matched) +   -- uniform over the same support (ablates only the
//     dedup                 block shape),
//   uniform[C] + dedup   -- the paper's "simpler solution" (support C),
// plus the no-dedup load profile (every layer transmits its copy), computed
// combinatorially under the block delays.
#include "bench_common.hpp"

#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/rand_sharing.hpp"
#include "sched/workloads.hpp"

namespace dasched {
namespace {

void print_tables() {
  bench::experiment_banner(
      "E6 (Lemma 4.4 ablation)",
      "block delays + dedup vs uniform delays vs no dedup");

  Table table("E6.a -- delay regimes on one instance (gnp n = 250, k = 20 broadcasts)");
  table.set_header({"regime", "delay support", "big-rounds", "max load/big-round",
                    "schedule rounds", "correct"});
  Rng rng(250);
  const auto g = make_gnp_connected(250, 6.0 / 250, rng);

  auto run_with = [&](DelayKind kind, const char* name) {
    auto p = make_broadcast_workload(g, 20, 4, 99);
    PrivateSchedulerConfig cfg;
    cfg.seed = 21;
    cfg.delay_kind = kind;
    cfg.central_precomputation = true;
    const auto out = PrivateRandomnessScheduler(cfg).run(*p);
    const auto v = p->verify(out.exec);
    table.add_row({name, Table::fmt(std::uint64_t{out.delay_support}),
                   Table::fmt(std::uint64_t{out.exec.num_big_rounds}),
                   Table::fmt(std::uint64_t{out.exec.max_edge_load}),
                   Table::fmt(out.schedule_rounds),
                   (v.ok() && out.uncovered_nodes == 0) ? "yes" : "NO"});
  };
  run_with(DelayKind::kBlock, "block + dedup (Lemma 4.4)");
  run_with(DelayKind::kUniformMatched, "uniform(matched) + dedup");
  run_with(DelayKind::kUniformFull, "uniform[C] + dedup (simpler soln)");

  // No-dedup loads under the block delays: every eligible layer transmits.
  {
    auto p = make_broadcast_workload(g, 20, 4, 99);
    p->run_solo();
    ClusteringConfig ccfg;
    ccfg.seed = 21;
    ccfg.dilation = p->dilation();
    const auto clustering = ClusteringBuilder(ccfg).build_central(g);
    const auto seeds = RandomnessSharing({.seed = 21}).run_central(g, clustering);
    PrivateSchedulerConfig cfg;
    cfg.seed = 21;
    std::uint32_t support = 0;
    const auto delay =
        PrivateRandomnessScheduler(cfg).compute_delays(*p, clustering, seeds, &support);
    const auto loads = PrivateRandomnessScheduler::no_dedup_loads(*p, clustering, delay);
    std::uint64_t rounds = 0;
    std::uint32_t max_load = 0;
    for (const auto l : loads) {
      rounds += std::max<std::uint32_t>(1, l);
      max_load = std::max(max_load, l);
    }
    table.add_row({"block, NO dedup (all layers)", Table::fmt(std::uint64_t{support}),
                   Table::fmt(std::uint64_t{loads.size()}),
                   Table::fmt(std::uint64_t{max_load}), Table::fmt(rounds), "n/a"});
  }
  bench::emit(table);

  Table t2("E6.b -- regime comparison across seeds (schedule rounds)");
  t2.set_header({"seed", "block+dedup", "uniform(matched)", "uniform[C]"});
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    std::uint64_t lens[3] = {0, 0, 0};
    const DelayKind kinds[3] = {DelayKind::kBlock, DelayKind::kUniformMatched,
                                DelayKind::kUniformFull};
    for (int i = 0; i < 3; ++i) {
      auto p = make_broadcast_workload(g, 20, 4, 99);
      PrivateSchedulerConfig cfg;
      cfg.seed = seed;
      cfg.delay_kind = kinds[i];
      cfg.central_precomputation = true;
      const auto out = PrivateRandomnessScheduler(cfg).run(*p);
      lens[i] = out.schedule_rounds;
    }
    t2.add_row({Table::fmt(seed), Table::fmt(lens[0]), Table::fmt(lens[1]),
                Table::fmt(lens[2])});
  }
  bench::emit(t2);
}

void bm_delay_computation(benchmark::State& state) {
  Rng rng(3);
  const auto g = make_gnp_connected(200, 0.04, rng);
  auto p = make_broadcast_workload(g, 16, 3, 5);
  p->run_solo();
  ClusteringConfig ccfg;
  ccfg.dilation = p->dilation();
  const auto clustering = ClusteringBuilder(ccfg).build_central(g);
  const auto seeds = RandomnessSharing({}).run_central(g, clustering);
  const PrivateRandomnessScheduler sched{PrivateSchedulerConfig{}};
  for (auto _ : state) {
    std::uint32_t support = 0;
    auto delay = sched.compute_delays(*p, clustering, seeds, &support);
    benchmark::DoNotOptimize(delay);
  }
}
BENCHMARK(bm_delay_computation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
