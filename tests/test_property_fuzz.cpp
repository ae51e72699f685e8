// Randomized property tests ("fuzzing with invariants"):
//
//  * any lockstep delay schedule preserves solo outputs, and the executor's
//    load profile equals the combinatorial analyzer's, for random workloads
//    on random graphs across many seeds;
//  * the Theorem 1.1 / 4.1 schedulers are correct for every seed tried;
//  * clustering invariants (h' exactness, label minimality) hold on random
//    graphs -- the distributed protocol vs a from-first-principles check.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sched/clustering.hpp"
#include "sched/delay_schedule.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"

namespace dasched {
namespace {

Graph random_graph(std::uint64_t seed) {
  Rng rng(seed);
  const NodeId n = 30 + static_cast<NodeId>(rng.next_below(60));
  const EdgeId extra = static_cast<EdgeId>(rng.next_below(2 * n));
  return make_random_connected(n, n - 1 + extra, rng);
}

std::unique_ptr<ScheduleProblem> random_workload(const Graph& g, std::uint64_t seed) {
  Rng rng(seed_combine(seed, 0xF0));
  const std::size_t k = 3 + rng.next_below(8);
  const std::uint32_t radius = 2 + static_cast<std::uint32_t>(rng.next_below(4));
  switch (rng.next_below(3)) {
    case 0:
      return make_broadcast_workload(g, k, radius, seed);
    case 1:
      return make_routing_workload(g, k, seed);
    default:
      return make_mixed_workload(g, k, radius, seed);
  }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, LockstepDelaysPreserveOutputsAndMatchAnalyzer) {
  const std::uint64_t seed = GetParam();
  const auto g = random_graph(seed);
  auto problem = random_workload(g, seed);
  problem->run_solo();

  Rng rng(seed_combine(seed, 0xDE));
  std::vector<std::uint32_t> delays(problem->size());
  for (auto& d : delays) d = static_cast<std::uint32_t>(rng.next_below(20));

  Executor executor(g, {});
  const auto algos = problem->algorithm_ptrs();
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [&delays](std::size_t a, NodeId, std::uint32_t r) {
        return delays[a] + r - 1;
      });
  const auto exec = executor.run(algos, schedule);
  EXPECT_EQ(exec.causality_violations, 0u);
  EXPECT_TRUE(problem->verify(exec).ok()) << "seed " << seed;

  const auto profile = delay_load_profile(*problem, delays);
  ASSERT_EQ(profile.num_phases(), exec.num_big_rounds);
  EXPECT_EQ(profile.max_load_per_phase, exec.max_load_per_big_round);
  EXPECT_EQ(profile.total_messages, exec.total_messages);
}

TEST_P(FuzzSeeds, SharedSchedulerAlwaysCorrect) {
  const std::uint64_t seed = GetParam();
  const auto g = random_graph(seed ^ 0xA);
  auto problem = random_workload(g, seed ^ 0xA);
  SharedSchedulerConfig cfg;
  cfg.shared_seed = seed;
  const auto out = SharedRandomnessScheduler(cfg).run(*problem);
  const auto v = problem->verify(out.exec);
  EXPECT_TRUE(v.ok()) << "seed " << seed << " incomplete " << v.incomplete_nodes
                      << " mismatched " << v.mismatched_outputs;
  EXPECT_GE(out.schedule_rounds, problem->trivial_lower_bound());
}

TEST_P(FuzzSeeds, PrivateSchedulerCorrectWhenCovered) {
  const std::uint64_t seed = GetParam();
  const auto g = random_graph(seed ^ 0xB);
  auto problem = random_workload(g, seed ^ 0xB);
  PrivateSchedulerConfig cfg;
  cfg.seed = seed;
  cfg.clustering.num_layers = 14;
  cfg.central_precomputation = true;  // distributed==central is tested elsewhere
  const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
  EXPECT_EQ(out.exec.causality_violations, 0u) << "seed " << seed;
  if (out.uncovered_nodes == 0) {
    EXPECT_TRUE(problem->verify(out.exec).ok()) << "seed " << seed;
  }
}

TEST_P(FuzzSeeds, ClusteringInvariantsFromFirstPrinciples) {
  const std::uint64_t seed = GetParam();
  const auto g = random_graph(seed ^ 0xC);
  ClusteringConfig cfg;
  cfg.seed = seed;
  cfg.dilation = 3;
  cfg.num_layers = 3;
  const auto clustering =
      RandomnessSharing({.seed = seed}).run_distributed(g, ClusteringBuilder(cfg)).clustering;
  const auto dist = clustering.radius_distribution_for_replay();

  for (std::uint32_t l = 0; l < clustering.num_layers(); ++l) {
    // Recompute every node's ball and check the min-label-covering-ball rule.
    const std::uint64_t lseed = ClusteringBuilder::layer_seed(seed, l);
    std::vector<std::uint32_t> radius(g.num_nodes());
    std::vector<std::uint64_t> label(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      Rng node_rng(seed_combine(lseed, u));
      ClusteringBuilder::draw_node_params(node_rng, dist, u, &radius[u], &label[u]);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::uint64_t min_covering = ~std::uint64_t{0};
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const auto d = bfs_distances_capped(g, u, radius[u]);
        if (d[v] != kUnreachable) min_covering = std::min(min_covering, label[u]);
      }
      EXPECT_EQ(clustering.layers[l].label[v], min_covering)
          << "seed " << seed << " layer " << l << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace dasched
