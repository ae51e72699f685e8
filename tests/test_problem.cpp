#include <gtest/gtest.h>

#include "algos/broadcast.hpp"
#include "algos/path_routing.hpp"
#include "graph/generators.hpp"
#include "sched/baseline.hpp"
#include "sched/problem.hpp"
#include "sched/workloads.hpp"

namespace dasched {
namespace {

TEST(ScheduleProblem, DilationIsMaxRounds) {
  const auto g = make_path(8);
  ScheduleProblem problem(g);
  problem.add(std::make_unique<BroadcastAlgorithm>(0, 3, 1, 1));
  problem.add(std::make_unique<BroadcastAlgorithm>(7, 6, 2, 2));
  EXPECT_EQ(problem.dilation(), 6u);
}

TEST(ScheduleProblem, CongestionOnSharedEdge) {
  // Two packets routed over the same directed path edges: congestion 2 on
  // shared edges.
  const auto g = make_path(5);
  ScheduleProblem problem(g);
  problem.add(std::make_unique<PathRoutingAlgorithm>(
      std::vector<NodeId>{0, 1, 2, 3}, 10, 1));
  problem.add(std::make_unique<PathRoutingAlgorithm>(
      std::vector<NodeId>{1, 2, 3, 4}, 20, 2));
  problem.run_solo();
  EXPECT_EQ(problem.congestion(), 2u);
  EXPECT_EQ(problem.dilation(), 3u);
  EXPECT_EQ(problem.trivial_lower_bound(), 3u);
  EXPECT_EQ(problem.total_messages(), 6u);
}

TEST(ScheduleProblem, OppositeDirectionsDoNotCongest) {
  // CONGEST allows one message per *direction*: two packets crossing the same
  // edge in opposite directions have congestion 1.
  const auto g = make_path(3);
  ScheduleProblem problem(g);
  problem.add(std::make_unique<PathRoutingAlgorithm>(std::vector<NodeId>{0, 1, 2}, 1, 1));
  problem.add(std::make_unique<PathRoutingAlgorithm>(std::vector<NodeId>{2, 1, 0}, 2, 2));
  problem.run_solo();
  EXPECT_EQ(problem.congestion(), 1u);
}

TEST(ScheduleProblem, VerifyAcceptsSoloReplay) {
  Rng rng(5);
  const auto g = make_gnp_connected(40, 0.1, rng);
  auto problem = make_mixed_workload(g, 6, 3, 77);
  problem->run_solo();

  // Replay sequentially (always correct).
  Executor executor(g, {});
  const auto algos = problem->algorithm_ptrs();
  std::vector<std::uint32_t> offsets(algos.size(), 0);
  for (std::size_t a = 1; a < algos.size(); ++a) {
    offsets[a] = offsets[a - 1] + algos[a - 1]->rounds();
  }
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [&offsets](std::size_t a, NodeId, std::uint32_t r) {
        return offsets[a] + r - 1;
      });
  const auto exec = executor.run(algos, schedule);
  const auto v = problem->verify(exec);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.incomplete_nodes, 0u);
  EXPECT_EQ(v.mismatched_outputs, 0u);
}

TEST(ScheduleProblem, VerifyCountsBrokenSchedules) {
  const auto g = make_path(6);
  ScheduleProblem problem(g);
  problem.add(std::make_unique<BroadcastAlgorithm>(0, 5, 9, 3));
  problem.run_solo();

  // Everyone runs rounds 1..5 at once-ish but node 0 runs last: downstream
  // nodes never see the token.
  Executor executor(g, {});
  const auto algos = problem.algorithm_ptrs();
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId v, std::uint32_t r) {
        return (v == 0 ? 100u : 0u) + r - 1;
      });
  const auto exec = executor.run(algos, schedule);
  const auto v = problem.verify(exec);
  EXPECT_FALSE(v.ok());
  EXPECT_GT(v.mismatched_outputs, 0u);
  EXPECT_GT(v.causality_violations, 0u);
}

TEST(Workloads, SizesAndSoloAreConsistent) {
  Rng rng(8);
  const auto g = make_gnp_connected(50, 0.1, rng);
  const auto bcast = make_broadcast_workload(g, 5, 3, 1);
  EXPECT_EQ(bcast->size(), 5u);
  const auto bfs = make_bfs_workload(g, 4, 3, 2);
  EXPECT_EQ(bfs->size(), 4u);
  const auto routing = make_routing_workload(g, 7, 3);
  EXPECT_EQ(routing->size(), 7u);
  auto mixed = make_mixed_workload(g, 9, 3, 4);
  EXPECT_EQ(mixed->size(), 9u);
  mixed->run_solo();
  EXPECT_GT(mixed->congestion(), 0u);
  EXPECT_GE(mixed->dilation(), 3u);
}

TEST(ScheduleProblem, MessageComplexityDoesNotDetermineCongestion) {
  // Section 5's side note: "an algorithm with message complexity O(m) can
  // have congestion anywhere between O(1) to O(m)". Two routing workloads
  // with the SAME total message count: one spreads packets over disjoint
  // path segments (congestion 1), the other funnels them all through one
  // edge (congestion k).
  const auto g = make_path(17);
  const std::size_t k = 8;

  ScheduleProblem spread(g);
  for (std::size_t i = 0; i < k; ++i) {
    // Disjoint 2-edge segments: 0-1-2, 2-3-4, ... (consecutive packets share
    // only endpoints, never a directed edge in the same direction).
    const NodeId s = static_cast<NodeId>(2 * i);
    spread.add(std::make_unique<PathRoutingAlgorithm>(
        std::vector<NodeId>{s, s + 1, s + 2}, i, i + 1));
  }
  spread.run_solo();

  ScheduleProblem funneled(g);
  for (std::size_t i = 0; i < k; ++i) {
    // Every packet crosses the same two edges 0-1-2.
    funneled.add(std::make_unique<PathRoutingAlgorithm>(
        std::vector<NodeId>{0, 1, 2}, i, 100 + i));
  }
  funneled.run_solo();

  EXPECT_EQ(spread.total_messages(), funneled.total_messages());
  EXPECT_EQ(spread.congestion(), 1u);
  EXPECT_EQ(funneled.congestion(), k);
  // And the schedulers feel it: the funneled instance cannot beat congestion.
  const auto out = GreedyScheduler{}.run(funneled);
  EXPECT_TRUE(funneled.verify(out.exec).ok());
  EXPECT_GE(out.schedule_rounds, k);
}

}  // namespace
}  // namespace dasched
