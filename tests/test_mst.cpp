// Section 5 MST tests: the tunable pipeline MST must produce the exact MST
// (vs central Kruskal) for every value of the congestion knob, and its
// congestion/dilation must move along the Kutten-Peleg-style tradeoff.
#include <gtest/gtest.h>

#include "algos/mst.hpp"
#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "kruskal.hpp"
#include "sched/problem.hpp"
#include "sched/shared_scheduler.hpp"

namespace dasched {
namespace {

/// Per-node incident-MST-edge oracle from central Kruskal.
std::vector<std::vector<std::uint64_t>> kruskal_incident(
    const Graph& g, const std::vector<std::uint64_t>& w) {
  const auto mst = kruskal_mst(g, w);
  std::vector<std::vector<std::uint64_t>> expected(g.num_nodes());
  for (const EdgeId e : mst) {
    const auto [a, b] = g.endpoints(e);
    expected[a].push_back(e);
    expected[b].push_back(e);
  }
  for (auto& v : expected) std::sort(v.begin(), v.end());
  return expected;
}

struct MstCase {
  std::string name;
  Graph graph;
};

std::vector<MstCase>& mst_cases() {
  static auto* cases = [] {
    Rng rng(1000);
    auto* v = new std::vector<MstCase>;
    v->push_back({"path20", make_path(20)});
    v->push_back({"cycle24", make_cycle(24)});
    v->push_back({"grid6x6", make_grid(6, 6)});
    v->push_back({"gnp50", make_gnp_connected(50, 0.1, rng)});
    v->push_back({"random80", make_random_connected(80, 200, rng)});
    v->push_back({"lollipop30", make_lollipop(30, 10)});
    v->push_back({"complete12", make_complete(12)});
    return v;
  }();
  return *cases;
}

class MstOnGraphs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MstOnGraphs, MatchesKruskalForEveryKnobValue) {
  const auto& c = mst_cases()[GetParam()];
  const auto w = make_mst_weights(c.graph, 77);
  const auto expected = kruskal_incident(c.graph, w);
  for (const std::uint32_t target :
       {1u, 2u, 4u, 8u, c.graph.num_nodes() / 2, c.graph.num_nodes()}) {
    if (target < 1) continue;
    PipelineMstAlgorithm algo(c.graph, w, target, 5);
    const auto result = solo_run(c.graph, algo);
    for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
      EXPECT_EQ(result.outputs[v], expected[v])
          << c.name << " target=" << target << " node " << v;
    }
  }
}

TEST_P(MstOnGraphs, DifferentWeightSeedsGiveDifferentTreesButAlwaysCorrect) {
  const auto& c = mst_cases()[GetParam()];
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto w = make_mst_weights(c.graph, seed);
    const auto expected = kruskal_incident(c.graph, w);
    PipelineMstAlgorithm algo(c.graph, w, 4, seed);
    const auto result = solo_run(c.graph, algo);
    for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
      EXPECT_EQ(result.outputs[v], expected[v]) << c.name << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, MstOnGraphs,
                         ::testing::Range<std::size_t>(0, 7),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return mst_cases()[info.param].name;
                         });

TEST(Mst, WeightsAreDistinct) {
  const auto g = make_complete(20);
  const auto w = make_mst_weights(g, 9);
  std::set<std::uint64_t> s(w.begin(), w.end());
  EXPECT_EQ(s.size(), w.size());
}

TEST(Mst, PlanFragmentsRespectTarget) {
  Rng rng(4);
  const auto g = make_random_connected(100, 300, rng);
  const auto w = make_mst_weights(g, 11);
  std::uint32_t prev_fragments = 0;
  for (const std::uint32_t target : {1u, 5u, 20u, 100u}) {
    const auto plan = plan_mst(g, w, target);
    EXPECT_GE(plan.num_fragments, 1u);
    if (target == 100) {
      EXPECT_EQ(plan.num_fragments, 100u);  // no phases run
    }
    if (target == 1) {
      EXPECT_EQ(plan.num_fragments, 1u);
    }
    // Fewer target fragments => more Boruvka phases => not fewer fragments
    // than a smaller target produced.
    EXPECT_GE(plan.num_fragments, prev_fragments);
    prev_fragments = plan.num_fragments;
  }
}

TEST(Mst, TradeoffMovesCongestionAndDilation) {
  // The Section 5 tradeoff: small target_fragments (the paper's congestion
  // knob L) => low congestion, high dilation; large => the reverse.
  Rng rng(5);
  const auto g = make_random_connected(120, 360, rng);
  const auto w = make_mst_weights(g, 13);

  auto measure = [&](std::uint32_t target) {
    ScheduleProblem problem(g);
    problem.add(std::make_unique<PipelineMstAlgorithm>(g, w, target, 3));
    problem.run_solo();
    return std::pair<std::uint32_t, std::uint32_t>{problem.congestion(),
                                                   problem.dilation()};
  };
  const auto [c_low, d_low] = measure(4);      // few fragments
  const auto [c_high, d_high] = measure(120);  // singletons (pure pipeline)
  EXPECT_LT(c_low, c_high);
  EXPECT_GT(d_low, d_high);
}

TEST(Mst, KShotSchedulingStaysCorrect) {
  // k MST instances (different weights) scheduled together under Theorem 1.1
  // must all deliver the exact per-instance MST.
  Rng rng(6);
  const auto g = make_random_connected(60, 150, rng);
  ScheduleProblem problem(g);
  const std::size_t k = 4;
  std::vector<std::vector<std::vector<std::uint64_t>>> expected;
  for (std::size_t i = 0; i < k; ++i) {
    auto w = make_mst_weights(g, 100 + i);
    expected.push_back(kruskal_incident(g, w));
    problem.add(std::make_unique<PipelineMstAlgorithm>(g, std::move(w), 8, 100 + i));
  }
  const auto out = SharedRandomnessScheduler{}.run(problem);
  ASSERT_TRUE(problem.verify(out.exec).ok());
  for (std::size_t i = 0; i < k; ++i) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(out.exec.outputs[i][v], expected[i][v]);
    }
  }
}

TEST(Mst, SingleNodeAndSingleEdge) {
  {
    const auto g = make_path(1);
    PipelineMstAlgorithm algo(g, {}, 1, 1);
    const auto r = solo_run(g, algo);
    EXPECT_TRUE(r.outputs[0].empty());
  }
  {
    const auto g = make_path(2);
    const auto w = make_mst_weights(g, 2);
    PipelineMstAlgorithm algo(g, w, 1, 1);
    const auto r = solo_run(g, algo);
    EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{0}));
    EXPECT_EQ(r.outputs[1], (std::vector<std::uint64_t>{0}));
  }
}

}  // namespace
}  // namespace dasched
