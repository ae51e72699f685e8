// Appendix A tests: distinct elements accuracy, the Bellagio wrapper's
// equivalence to global shared randomness on covered nodes, and the Newman
// reduction.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/distinct_elements.hpp"
#include "congest/simulator.hpp"
#include "derand/bellagio.hpp"
#include "derand/newman.hpp"
#include "graph/generators.hpp"

namespace dasched {
namespace {

std::vector<std::uint64_t> make_values(NodeId n, std::uint64_t seed,
                                       std::uint32_t distinct_pool) {
  // Draw from a small pool so duplicates exist (distinctness matters).
  std::vector<std::uint64_t> values(n);
  Rng rng(seed);
  for (auto& v : values) v = splitmix64(seed ^ rng.next_below(distinct_pool));
  return values;
}

std::vector<std::vector<std::uint64_t>> global_seed(NodeId n, std::uint64_t s) {
  return std::vector<std::vector<std::uint64_t>>(n, std::vector<std::uint64_t>{s});
}

TEST(DistinctElements, GlobalSharedRandomnessEstimatesWithinFactor) {
  Rng rng(2);
  const auto g = make_gnp_connected(70, 0.07, rng);
  const auto values = make_values(g.num_nodes(), 11, 30);
  DistinctElementsParams params;
  params.radius = 2;
  params.rho = 1.5;
  params.iterations = 64;
  DistinctElementsAlgorithm algo(g, params, values, global_seed(g.num_nodes(), 99), 5);

  const auto result = solo_run(g, algo);
  const auto exact = exact_distinct_counts(g, values, params.radius);

  const double tolerance = params.rho * params.rho;  // one threshold of slack
  std::uint32_t good = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double est = static_cast<double>(result.outputs[v][1]);
    const double truth = static_cast<double>(exact[v]);
    ASSERT_GT(truth, 0);
    if (est <= truth * tolerance && est >= truth / tolerance) ++good;
    // Hard cap: never off by more than two thresholds.
    EXPECT_LE(est, truth * tolerance * params.rho) << "node " << v;
    EXPECT_GE(est, truth / (tolerance * params.rho)) << "node " << v;
  }
  // The (1+eps) guarantee holds w.h.p. per node; demand 90% within one
  // threshold of slack.
  EXPECT_GE(good, g.num_nodes() * 9 / 10);
}

TEST(DistinctElements, CountsDistinctNotTotal) {
  // All nodes share one value: every estimate must be ~1 regardless of ball
  // size.
  const auto g = make_grid(5, 5);
  std::vector<std::uint64_t> values(g.num_nodes(), 42);
  DistinctElementsParams params;
  params.radius = 3;
  params.iterations = 48;
  DistinctElementsAlgorithm algo(g, params, values, global_seed(g.num_nodes(), 7), 3);
  const auto result = solo_run(g, algo);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(result.outputs[v][1], 2u) << v;
  }
}

TEST(DistinctElements, RoundsMatchBundledBudget) {
  const auto g = make_path(10);
  DistinctElementsParams params;
  params.radius = 4;
  params.iterations = 32;
  params.num_thresholds = 6;
  DistinctElementsAlgorithm algo(g, params, std::vector<std::uint64_t>(10, 1),
                                 global_seed(10, 1), 1);
  // 6 * 32 = 192 experiments -> 3 words -> 3 * 4 rounds.
  EXPECT_EQ(algo.rounds(), 12u);
}

TEST(Bellagio, MatchesGlobalRandomnessOnCoveredNodes) {
  Rng rng(3);
  const auto g = make_gnp_connected(50, 0.1, rng);
  const auto values = make_values(g.num_nodes(), 21, 20);
  DistinctElementsParams params;
  params.radius = 2;
  params.iterations = 48;

  BellagioConfig cfg;
  cfg.seed = 4;
  cfg.num_layers = 10;
  const std::uint32_t rounds =
      DistinctElementsAlgorithm(g, params, values, global_seed(g.num_nodes(), 0), 0)
          .rounds();

  const auto result = run_bellagio(
      g, rounds,
      [&](const std::vector<std::vector<std::uint64_t>>& node_seeds) {
        return std::make_unique<DistinctElementsAlgorithm>(g, params, values,
                                                           node_seeds, 9);
      },
      cfg);

  EXPECT_EQ(result.uncovered_nodes, 0u);
  EXPECT_GT(result.precomputation_rounds, 0u);
  EXPECT_EQ(result.execution_rounds, 10u * rounds);

  // Covered nodes' outputs must match what a *global* run with their adopted
  // cluster seed would produce: compare against the exact counts instead
  // (the Bellagio canonical-output property), within the usual tolerance.
  const auto exact = exact_distinct_counts(g, values, params.radius);
  const double tol = params.rho * params.rho * params.rho;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_TRUE(result.valid[v]);
    const double est = static_cast<double>(result.outputs[v][1]);
    EXPECT_LE(est, exact[v] * tol) << v;
    EXPECT_GE(est, exact[v] / tol) << v;
  }
}

TEST(Bellagio, CentralAndDistributedPrecomputationAgree) {
  const auto g = make_grid(5, 5);
  const auto values = make_values(g.num_nodes(), 31, 12);
  DistinctElementsParams params;
  params.radius = 2;
  params.iterations = 32;
  const std::uint32_t rounds =
      DistinctElementsAlgorithm(g, params, values, global_seed(g.num_nodes(), 0), 0)
          .rounds();
  auto factory = [&](const std::vector<std::vector<std::uint64_t>>& node_seeds) {
    return std::make_unique<DistinctElementsAlgorithm>(g, params, values, node_seeds, 9);
  };
  BellagioConfig cfg;
  cfg.seed = 6;
  cfg.num_layers = 6;
  const auto dist = run_bellagio(g, rounds, factory, cfg);
  cfg.central_precomputation = true;
  const auto central = run_bellagio(g, rounds, factory, cfg);
  ASSERT_EQ(dist.outputs.size(), central.outputs.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(dist.valid[v], central.valid[v]);
    if (dist.valid[v]) {
      EXPECT_EQ(dist.outputs[v], central.outputs[v]) << v;
    }
  }
  EXPECT_EQ(central.precomputation_rounds, 0u);
  EXPECT_GT(dist.precomputation_rounds, 0u);
}

// --- Newman reduction ---

TEST(Newman, FindsSmallCollectionPreservingCanonicalOutputs) {
  // Toy Bellagio task: output = (input mod 7) for 90% of seeds, garbage for
  // the rest. Canonical output = the majority; a random sub-collection of 12
  // should preserve a 3/5 majority on every input.
  const std::uint32_t num_seeds = 200;
  const std::uint32_t num_inputs = 40;
  auto eval = [](std::uint32_t s, std::uint32_t x) -> std::uint64_t {
    if (splitmix64(seed_combine(s, 0xBAD)) % 10 == 0) {
      return splitmix64(seed_combine(s, x));  // "wrong execution"
    }
    return x % 7;
  };
  const auto canonical = newman_canonical_outputs(eval, num_seeds, num_inputs);
  for (std::uint32_t x = 0; x < num_inputs; ++x) EXPECT_EQ(canonical[x], x % 7);

  const auto result = newman_reduce(eval, num_seeds, num_inputs, 12, 3, 5);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.collection.size(), 12u);
  // Validate the guarantee directly.
  for (std::uint32_t x = 0; x < num_inputs; ++x) {
    std::uint32_t agree = 0;
    for (const auto s : result.collection) {
      if (eval(s, x) == canonical[x]) ++agree;
    }
    EXPECT_GE(agree * 5, 3u * result.collection.size());
  }
}

TEST(Newman, SearchIsDeterministic) {
  auto eval = [](std::uint32_t s, std::uint32_t x) -> std::uint64_t {
    return (s + x) % 3 == 0 ? 1 : 0;
  };
  const auto a = newman_reduce(eval, 50, 10, 6, 1, 3);
  const auto b = newman_reduce(eval, 50, 10, 6, 1, 3);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.collection, b.collection);
  EXPECT_EQ(a.candidates_tried, b.candidates_tried);
}

TEST(Newman, ImpossibleThresholdFails) {
  // Outputs depend entirely on the seed: no sub-collection can agree with a
  // canonical value on all inputs at a 100% threshold.
  auto eval = [](std::uint32_t s, std::uint32_t x) -> std::uint64_t {
    return splitmix64(seed_combine(s, x));
  };
  const auto result = newman_reduce(eval, 64, 8, 4, 1, 1, 50);
  EXPECT_FALSE(result.found);
}

}  // namespace
}  // namespace dasched
