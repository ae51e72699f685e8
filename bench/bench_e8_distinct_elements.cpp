// E8 -- Appendix A: removing shared randomness from the d-hop distinct
// elements estimator (the Bellagio wrapper, Meta-Theorem A.1).
//
// For each network: accuracy and round cost of (a) the estimator with global
// shared randomness (an oracle; realizing it costs Omega(diameter) for
// leader election + broadcast) and (b) the wrapper with only private
// randomness -- O(d log^2 n) pre-computation plus Theta(log n) * T execution.
// Canonical-output agreement measures the Bellagio property: nodes adopting
// different layers' executions still output consistent estimates.
#include "bench_common.hpp"

#include "algos/distinct_elements.hpp"
#include "algos/mis.hpp"
#include "congest/simulator.hpp"
#include "derand/bellagio.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace dasched {
namespace {

void print_mis_negative_control();

void print_tables() {
  bench::experiment_banner("E8 (Appendix A)",
                           "Bellagio wrapper: distinct elements with private randomness");

  Table table("E8.a -- global vs locally-shared randomness");
  table.set_header({"n", "T (alg rounds)", "variant", "exec rounds", "pre-rounds",
                    "% within rho^2", "uncovered"});
  for (const NodeId n : {100u, 200u}) {
    Rng rng(n);
    const auto g = make_gnp_connected(n, 6.0 / n, rng);
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = splitmix64(n ^ rng.next_below(n / 2));

    DistinctElementsParams params;
    params.radius = 2;
    params.iterations = 64;
    const auto exact = exact_distinct_counts(g, values, params.radius);

    auto accuracy = [&](const NodeOutputs& outputs) {
      std::uint32_t within = 0;
      const double tol = params.rho * params.rho;
      for (NodeId v = 0; v < n; ++v) {
        const double est = static_cast<double>(outputs[v][1]);
        if (est <= exact[v] * tol && est >= exact[v] / tol) ++within;
      }
      return 100.0 * within / n;
    };

    const std::vector<std::vector<std::uint64_t>> global(n, {n ^ 0xABCDULL});
    DistinctElementsAlgorithm algo(g, params, values, global, 3);
    const auto solo = solo_run(g, algo);
    table.add_row({Table::fmt(std::uint64_t{n}), Table::fmt(std::uint64_t{algo.rounds()}),
                   "global shared (oracle)", Table::fmt(std::uint64_t{algo.rounds()}),
                   "0", Table::fmt(accuracy(solo.outputs), 1), "0"});

    BellagioConfig cfg;
    cfg.seed = n;
    const auto wrapped = run_bellagio(
        g, algo.rounds(),
        [&](const std::vector<std::vector<std::uint64_t>>& node_seeds) {
          return std::make_unique<DistinctElementsAlgorithm>(g, params, values,
                                                             node_seeds, 3);
        },
        cfg);
    table.add_row({Table::fmt(std::uint64_t{n}), Table::fmt(std::uint64_t{algo.rounds()}),
                   "Bellagio (private only)", Table::fmt(wrapped.execution_rounds),
                   Table::fmt(wrapped.precomputation_rounds),
                   Table::fmt(accuracy(wrapped.outputs), 1),
                   Table::fmt(wrapped.uncovered_nodes)});
  }
  bench::emit(table);

  Table t2("E8.b -- accuracy vs iteration count (n = 150, global randomness)");
  t2.set_header({"iterations", "alg rounds", "% within rho^2"});
  Rng rng(150);
  const auto g = make_gnp_connected(150, 0.04, rng);
  std::vector<std::uint64_t> values(g.num_nodes());
  for (auto& v : values) v = splitmix64(9 ^ rng.next_below(60));
  for (const std::uint32_t iters : {8u, 16u, 32u, 64u, 128u}) {
    DistinctElementsParams params;
    params.radius = 2;
    params.iterations = iters;
    const auto exact = exact_distinct_counts(g, values, params.radius);
    const std::vector<std::vector<std::uint64_t>> global(g.num_nodes(), {0x5EEDULL});
    DistinctElementsAlgorithm algo(g, params, values, global, 3);
    const auto solo = solo_run(g, algo);
    std::uint32_t within = 0;
    const double tol = params.rho * params.rho;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double est = static_cast<double>(solo.outputs[v][1]);
      if (est <= exact[v] * tol && est >= exact[v] / tol) ++within;
    }
    t2.add_row({Table::fmt(std::uint64_t{iters}), Table::fmt(std::uint64_t{algo.rounds()}),
                Table::fmt(100.0 * within / g.num_nodes(), 1)});
  }
  bench::emit(t2);

  print_mis_negative_control();
}

void print_mis_negative_control() {
  // The Appendix A caveat: MIS is NOT Bellagio, so the wrapper's stitched
  // outputs conflict. Positive control: distinct elements (pseudo-
  // deterministic) stitches cleanly (table E8.a); negative control below.
  Table table("E8.c -- negative control: Luby MIS under the wrapper (cycle graphs)");
  table.set_header({"n", "layers", "independence violations", "maximality violations"});
  for (const NodeId n : {400u, 800u}) {
    const auto g = make_cycle(n);
    BellagioConfig cfg;
    cfg.seed = 5;
    cfg.num_layers = 8;
    cfg.radius_factor = 1.0;
    const std::uint32_t phases = 4;
    const auto wrapped = run_bellagio(
        g, 2 * phases,
        [&](const std::vector<std::vector<std::uint64_t>>& node_seeds) {
          return std::make_unique<LubyMisAlgorithm>(phases, node_seeds, 9);
        },
        cfg);
    std::vector<std::uint8_t> decided(n, 0);
    std::vector<std::uint8_t> in_mis(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!wrapped.valid[v]) continue;
      decided[v] = static_cast<std::uint8_t>(wrapped.outputs[v][0]);
      in_mis[v] = static_cast<std::uint8_t>(wrapped.outputs[v][1]);
    }
    const auto [indep, maximal] = check_mis(g, decided, in_mis);
    table.add_row({Table::fmt(std::uint64_t{n}), Table::fmt(std::uint64_t{cfg.num_layers}),
                   Table::fmt(indep), Table::fmt(maximal)});
  }
  bench::emit(table);
  std::cout << "Non-zero conflicts = the paper's point: the wrapper needs the\n"
               "Bellagio (canonical output) property, which MIS lacks.\n\n";
}

void bm_distinct_elements(benchmark::State& state) {
  Rng rng(7);
  const auto g = make_gnp_connected(120, 0.05, rng);
  std::vector<std::uint64_t> values(g.num_nodes(), 0);
  for (auto& v : values) v = rng();
  DistinctElementsParams params;
  params.radius = 2;
  params.iterations = 32;
  const std::vector<std::vector<std::uint64_t>> global(g.num_nodes(), {1ULL});
  for (auto _ : state) {
    DistinctElementsAlgorithm algo(g, params, values, global, 3);
    const auto out = solo_run(g, algo);
    benchmark::DoNotOptimize(out.pattern.total_messages());
  }
}
BENCHMARK(bm_distinct_elements)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
