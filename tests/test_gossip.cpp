// Gossip tests: the key property is that a *randomized* black-box algorithm
// is scheduled faithfully -- per-node randomness is derived deterministically
// (the paper: sampled at start, fixed, part of the input), so solo and
// scheduled executions flip identical coins.
#include <gtest/gtest.h>

#include "algos/gossip.hpp"
#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/problem.hpp"
#include "sched/shared_scheduler.hpp"

namespace dasched {
namespace {

TEST(Gossip, SpreadsPlausiblyAndDeterministically) {
  Rng rng(3);
  const auto g = make_gnp_connected(60, 0.1, rng);
  GossipAlgorithm algo(0, 30, 77, 5);
  const auto a = solo_run(g, algo);
  const auto b = solo_run(g, algo);
  // Determinism: same seed, same execution.
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(a.outputs[v], b.outputs[v]);
  // Plausibility: push gossip informs most of a 60-node expander in 30 rounds.
  std::uint32_t informed = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (a.outputs[v][GossipAlgorithm::kOutInformed] == 1) {
      ++informed;
      EXPECT_EQ(a.outputs[v][GossipAlgorithm::kOutRumor], 77u);
    }
  }
  EXPECT_GT(informed, g.num_nodes() / 2);
}

TEST(Gossip, DifferentSeedsSpreadDifferently) {
  Rng rng(4);
  const auto g = make_gnp_connected(60, 0.1, rng);
  GossipAlgorithm a(0, 10, 1, 100);
  GossipAlgorithm b(0, 10, 1, 101);
  const auto ra = solo_run(g, a);
  const auto rb = solo_run(g, b);
  bool differs = false;
  for (NodeId v = 0; v < g.num_nodes() && !differs; ++v) {
    differs = ra.outputs[v] != rb.outputs[v];
  }
  EXPECT_TRUE(differs);
}

TEST(Gossip, RandomizedPatternsScheduleFaithfully) {
  // 10 gossip instances with private coins under both schedulers: outputs
  // must match solo runs bit-for-bit (the randomness-as-input model).
  Rng rng(5);
  const auto g = make_gnp_connected(70, 0.08, rng);
  auto fresh = [&] {
    auto problem = std::make_unique<ScheduleProblem>(g);
    for (std::uint64_t i = 0; i < 10; ++i) {
      problem->add(std::make_unique<GossipAlgorithm>(
          static_cast<NodeId>((7 * i) % g.num_nodes()), 20, 1000 + i, 300 + i));
    }
    return problem;
  };
  {
    auto p = fresh();
    const auto out = SharedRandomnessScheduler{}.run(*p);
    EXPECT_TRUE(p->verify(out.exec).ok());
  }
  {
    auto p = fresh();
    PrivateSchedulerConfig cfg;
    cfg.seed = 9;
    cfg.clustering.num_layers = 14;
    cfg.central_precomputation = true;
    const auto out = PrivateRandomnessScheduler(cfg).run(*p);
    EXPECT_EQ(out.uncovered_nodes, 0u);
    EXPECT_TRUE(p->verify(out.exec).ok());
  }
}

TEST(Gossip, CongestionIsLow) {
  // One message per informed node per round, random targets: per-edge loads
  // stay far below the flood workloads' -- the "low congestion, high
  // dilation" corner of the design space discussed in Section 5.
  Rng rng(6);
  const auto g = make_gnp_connected(80, 0.08, rng);
  ScheduleProblem problem(g);
  problem.add(std::make_unique<GossipAlgorithm>(0, 40, 1, 7));
  problem.run_solo();
  // A low-degree node's single edge can be pushed to repeatedly, but the
  // per-edge load still sits well below the round count.
  EXPECT_LT(problem.congestion(), 30u);
  EXPECT_EQ(problem.dilation(), 40u);
  // The typical edge is far lighter than the max: total messages over edges.
  EXPECT_LT(problem.total_messages() / g.num_directed_edges(), 8u);
}

}  // namespace
}  // namespace dasched
