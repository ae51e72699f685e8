// Appendix A demo: removing shared randomness from the d-hop distinct
// elements estimator via the Bellagio wrapper.
//
// Compares three ways of obtaining the hash-function seeds:
//   (a) global shared randomness (a free oracle -- would cost Omega(diameter)
//       rounds to realize by leader election + broadcast),
//   (b) the Bellagio wrapper: Lemma 4.2 clustering + Lemma 4.3 local seed
//       sharing, only private randomness, cost O(d log^2 n),
// and reports per-node estimate accuracy for both.
//
// Usage: distinct_elements [n] [radius] [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "algos/distinct_elements.hpp"
#include "congest/simulator.hpp"
#include "derand/bellagio.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dasched;
  const NodeId n = argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 100;
  const std::uint32_t radius = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 2;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  Rng rng(seed);
  const auto g = make_gnp_connected(n, 5.0 / n, rng);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = splitmix64(seed ^ rng.next_below(n / 2));

  DistinctElementsParams params;
  params.radius = radius;
  params.iterations = 64;
  const auto exact = exact_distinct_counts(g, values, radius);

  auto accuracy = [&](const NodeOutputs& outputs) {
    std::uint32_t within = 0;
    for (NodeId v = 0; v < n; ++v) {
      const double est = static_cast<double>(outputs[v][1]);
      const double truth = static_cast<double>(exact[v]);
      if (est <= truth * params.rho * params.rho && est >= truth / (params.rho * params.rho)) {
        ++within;
      }
    }
    return 100.0 * within / n;
  };

  Table table("d-hop distinct elements (Appendix A)");
  table.set_header({"randomness", "rounds", "pre-rounds", "% within (1+eps)^2"});

  std::uint32_t algo_rounds = 0;
  {
    const std::vector<std::vector<std::uint64_t>> global(n, {seed ^ 0xABCD});
    DistinctElementsAlgorithm algo(g, params, values, global, 3);
    algo_rounds = algo.rounds();
    const auto result = solo_run(g, algo);
    table.add_row({"global shared (oracle)", Table::fmt(std::uint64_t{algo.rounds()}), "0",
                   Table::fmt(accuracy(result.outputs), 1)});
  }
  {
    BellagioConfig cfg;
    cfg.seed = seed;
    const auto result = run_bellagio(
        g, algo_rounds,
        [&](const std::vector<std::vector<std::uint64_t>>& node_seeds) {
          return std::make_unique<DistinctElementsAlgorithm>(g, params, values,
                                                             node_seeds, 3);
        },
        cfg);
    std::printf("Bellagio wrapper: %u layers, %llu uncovered nodes\n",
                result.num_layers,
                static_cast<unsigned long long>(result.uncovered_nodes));
    table.add_row({"private only (Bellagio)", Table::fmt(result.execution_rounds),
                   Table::fmt(result.precomputation_rounds),
                   Table::fmt(accuracy(result.outputs), 1)});
  }
  table.print(std::cout);
  std::printf("Both columns should be accurate; the wrapper never used shared bits.\n");
  return 0;
}
