// E5 -- Theorem 4.1 / Theorem 1.3, the paper's main algorithmic result:
// scheduling with only private randomness.
//
// End-to-end comparison on identical workloads:
//   * schedule length of the private-randomness scheduler vs the shared-
//     randomness scheduler (Theorem 1.1) -- same O(C + D log n) regime,
//   * the pre-computation cost, against the O(dilation log^2 n) budget,
//   * coverage and correctness diagnostics (w.h.p. statements, measured).
#include "bench_common.hpp"

#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"

namespace dasched {
namespace {

void print_tables() {
  bench::experiment_banner(
      "E5 (Theorem 4.1)",
      "private randomness: O(D log^2 n) pre-computation + O(C + D log n) schedule");

  Table table("E5.a -- private vs shared randomness (mixed workload, k = 12, radius 3)");
  table.set_header({"n", "C", "D", "shared len", "private len", "pre-rounds",
                    "pre/(D ln^2 n)", "min cov", "correct"});
  for (const NodeId n : {100u, 200u, 400u}) {
    Rng rng(n);
    const auto g = make_gnp_connected(n, 6.0 / n, rng);

    auto shared_problem = make_mixed_workload(g, 12, 3, n);
    SharedSchedulerConfig scfg;
    scfg.shared_seed = n;
    scfg.num_threads = bench::num_threads();
    scfg.telemetry = bench::telemetry();
    const auto shared = SharedRandomnessScheduler(scfg).run(*shared_problem);
    DASCHED_CHECK(shared_problem->verify(shared.exec).ok());

    auto private_problem = make_mixed_workload(g, 12, 3, n);
    PrivateSchedulerConfig pcfg;
    pcfg.seed = n;
    pcfg.num_threads = bench::num_threads();
    pcfg.telemetry = bench::telemetry();
    const auto priv = PrivateRandomnessScheduler(pcfg).run(*private_problem);
    const auto verdict = private_problem->verify(priv.exec);

    const double ln = std::log(static_cast<double>(n));
    table.add_row(
        {Table::fmt(std::uint64_t{n}), Table::fmt(std::uint64_t{shared_problem->congestion()}),
         Table::fmt(std::uint64_t{shared_problem->dilation()}),
         Table::fmt(shared.schedule_rounds), Table::fmt(priv.schedule_rounds),
         Table::fmt(priv.precomputation_rounds),
         Table::fmt(priv.precomputation_rounds / (shared_problem->dilation() * ln * ln), 2),
         Table::fmt(std::uint64_t{priv.min_coverage}),
         (verdict.ok() && priv.uncovered_nodes == 0) ? "yes" : "NO"});
  }
  bench::emit(table);

  Table t2("E5.b -- schedule length ratio private/shared across seeds (n=200)");
  t2.set_header({"seed", "shared len", "private len", "ratio", "violations"});
  Rng rng(200);
  const auto g = make_gnp_connected(200, 0.03, rng);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    auto ps = make_mixed_workload(g, 12, 3, 77);
    SharedSchedulerConfig scfg;
    scfg.shared_seed = seed;
    const auto shared = SharedRandomnessScheduler(scfg).run(*ps);

    auto pp = make_mixed_workload(g, 12, 3, 77);
    PrivateSchedulerConfig pcfg;
    pcfg.seed = seed;
    pcfg.central_precomputation = true;  // identical results, cheaper sweep (tested)
    const auto priv = PrivateRandomnessScheduler(pcfg).run(*pp);
    t2.add_row({Table::fmt(seed), Table::fmt(shared.schedule_rounds),
                Table::fmt(priv.schedule_rounds),
                Table::fmt(static_cast<double>(priv.schedule_rounds) /
                               shared.schedule_rounds,
                           2),
                Table::fmt(priv.exec.causality_violations)});
  }
  bench::emit(t2);
}

void bm_private_scheduler(benchmark::State& state) {
  Rng rng(5);
  const auto g = make_gnp_connected(static_cast<NodeId>(state.range(0)), 0.04, rng);
  for (auto _ : state) {
    auto p = make_mixed_workload(g, 8, 3, 5);
    PrivateSchedulerConfig cfg;
    cfg.central_precomputation = true;
    const auto out = PrivateRandomnessScheduler(cfg).run(*p);
    benchmark::DoNotOptimize(out.schedule_rounds);
  }
}
BENCHMARK(bm_private_scheduler)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
