#include <gtest/gtest.h>

#include <algorithm>

#include "algos/broadcast.hpp"
#include "algos/path_routing.hpp"
#include "congest/executor.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"

namespace dasched {
namespace {

// A tiny ping-pong algorithm for exercising executor semantics directly:
// node 0 sends a counter to node 1 in odd rounds, node 1 replies incremented
// in even rounds. Outputs the final counter at both nodes.
class PingPong final : public DistributedAlgorithm {
 public:
  PingPong(std::uint32_t rounds, std::uint64_t seed)
      : DistributedAlgorithm(seed), rounds_(rounds) {}
  std::string name() const override { return "ping-pong"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;

 private:
  std::uint32_t rounds_;
};

class PingPongProgram final : public NodeProgram {
 public:
  explicit PingPongProgram(NodeId self) : self_(self) {}

  void on_round(VirtualContext& ctx) override {
    for (const auto& m : ctx.inbox()) counter_ = m.payload.at(0);
    if (self_ == 0 && ctx.vround() % 2 == 1) {
      ctx.send(1, {counter_ + 1});
    } else if (self_ == 1 && ctx.vround() % 2 == 0) {
      ctx.send(0, {counter_ + 1});
    }
  }

  void on_finish(VirtualContext& ctx) override {
    for (const auto& m : ctx.inbox()) counter_ = m.payload.at(0);
  }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.push_back(counter_);
  }

 private:
  NodeId self_;
  std::uint64_t counter_ = 0;
};

NodeProgram& PingPong::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<PingPongProgram>(node);
}

TEST(Simulator, PingPongCountsRounds) {
  const auto g = make_path(2);
  PingPong algo(6, 1);
  const auto result = solo_run(g, algo);
  // Rounds 1..6 alternate sends; each send increments the counter once.
  EXPECT_EQ(result.outputs[0].at(0), 6u);  // node 0 absorbed node 1's round-6 reply? see below
  EXPECT_EQ(result.outputs[1].at(0), 5u);
  EXPECT_EQ(result.pattern.total_messages(), 6u);
  EXPECT_EQ(result.pattern.last_message_round(), 6u);
  EXPECT_EQ(result.pattern.max_edge_load(), 3u);  // 3 messages each direction
}

TEST(Simulator, BroadcastPatternOnPath) {
  const auto g = make_path(5);
  BroadcastAlgorithm algo(0, 4, 99, 7);
  const auto result = solo_run(g, algo);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(result.outputs[v][BroadcastAlgorithm::kOutReceived], 1u);
    EXPECT_EQ(result.outputs[v][BroadcastAlgorithm::kOutValue], 99u);
    EXPECT_EQ(result.outputs[v][BroadcastAlgorithm::kOutDistance], v);
  }
  // On a path: node v forwards once in round v+1 over its incident edges.
  EXPECT_EQ(result.pattern.last_message_round(), 4u);
}

TEST(SoloRunner, ReusedEngineMatchesSimulatorOutputs) {
  // One SoloRunner serves algorithms of different rounds and widths in
  // sequence; every run must reproduce solo_run's outputs and pattern, and
  // solo_outputs' outputs.
  const auto g = make_cycle(9);
  BroadcastAlgorithm a(0, 6, 31, 41);
  PingPong b(5, 3);
  BroadcastAlgorithm c(4, 5, 32, 43);
  const DistributedAlgorithm* algos[] = {&a, &b, &c, &a};
  SoloRunner runner(g);
  for (const auto* algo : algos) {
    const auto reused = runner.run(*algo);
    const auto fresh = solo_run(g, *algo);
    EXPECT_EQ(reused.outputs, fresh.outputs) << algo->name();
    EXPECT_TRUE(std::ranges::equal(reused.pattern.cells(), fresh.pattern.cells()))
        << algo->name();
    EXPECT_EQ(solo_outputs(g, *algo), fresh.outputs) << algo->name();
  }
}

TEST(Executor, DelayedScheduleProducesSameOutputs) {
  const auto g = make_path(5);
  BroadcastAlgorithm algo(0, 4, 55, 3);

  const auto solo = solo_run(g, algo);

  // Same algorithm, but every virtual round r runs at big-round 10 + 3r.
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId, std::uint32_t r) { return 10 + 3 * r; });
  const auto exec = executor.run(algos, schedule);

  EXPECT_EQ(exec.causality_violations, 0u);
  EXPECT_TRUE(exec.all_completed());
  EXPECT_EQ(exec.outputs[0], solo.outputs);
}

TEST(Executor, PerNodeSkewedScheduleStillCausal) {
  // Path routing is unidirectional, so skewing each node later than its
  // upstream neighbor respects causality exactly.
  const auto g = make_path(6);
  PathRoutingAlgorithm algo({0, 1, 2, 3, 4, 5}, 321, 4);
  const auto solo = solo_run(g, algo);

  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId v, std::uint32_t r) { return r + v; });
  const auto exec = executor.run(algos, schedule);
  EXPECT_EQ(exec.causality_violations, 0u);
  EXPECT_EQ(exec.outputs[0], solo.outputs);
  EXPECT_EQ(exec.outputs[0][5].at(PathRoutingAlgorithm::kOutDelivered), 1u);
}

TEST(Executor, FloodUnderSkewIsFlaggedUnfaithful) {
  // Flooding uses edges in both directions; any per-node forward skew makes
  // some backward message late. The engine must notice even though the
  // receiver's *output* happens to be unaffected (it already held the token).
  const auto g = make_path(6);
  BroadcastAlgorithm algo(0, 5, 1, 4);
  const auto solo = solo_run(g, algo);

  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId v, std::uint32_t r) { return r + v; });
  const auto exec = executor.run(algos, schedule);
  EXPECT_GT(exec.causality_violations, 0u);
  // For broadcast specifically the late messages are redundant, so outputs
  // still match solo -- which is exactly why the engine tracks violations
  // instead of relying on output comparison alone.
  EXPECT_EQ(exec.outputs[0], solo.outputs);
}

TEST(Executor, DetectsCausalityViolation) {
  const auto g = make_path(3);
  BroadcastAlgorithm algo(0, 2, 1, 5);
  // Node 1 executes its rounds *before* node 0 transmits: node 1 misses the
  // token. The engine must flag the late delivery, and node 1's output must
  // differ from solo.
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId v, std::uint32_t r) {
        if (v == 0) return 10 + r;  // source runs late
        return r;                   // others run early
      });
  const auto exec = executor.run(algos, schedule);
  EXPECT_GT(exec.causality_violations, 0u);
  EXPECT_EQ(exec.outputs[0][1][BroadcastAlgorithm::kOutReceived], 0u);
}

TEST(Executor, NeverScheduledTruncatesExecution) {
  const auto g = make_path(4);
  BroadcastAlgorithm algo(0, 3, 8, 6);
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  // Node 3 never executes anything; others run lockstep.
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId v, std::uint32_t r) {
        if (v == 3) return kNeverScheduled;
        return r - 1;
      });
  const auto exec = executor.run(algos, schedule);
  EXPECT_FALSE(exec.all_completed());
  EXPECT_TRUE(exec.completed[0][0]);
  EXPECT_FALSE(exec.completed[0][3]);
  // Completed nodes are unaffected (node 3 is downstream of everyone).
  EXPECT_EQ(exec.outputs[0][2][BroadcastAlgorithm::kOutReceived], 1u);
  EXPECT_EQ(exec.causality_violations, 0u);
}

TEST(Executor, TwoAlgorithmsInterleavedKeepSoloOutputs) {
  const auto g = make_cycle(8);
  BroadcastAlgorithm a(0, 4, 11, 21);
  BroadcastAlgorithm b(4, 4, 22, 22);
  const auto solo_a = solo_run(g, a);
  const auto solo_b = solo_run(g, b);

  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&a, &b};
  // Algorithm 0 at even big-rounds, algorithm 1 at odd ones.
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t alg, NodeId, std::uint32_t r) {
        return 2 * (r - 1) + static_cast<std::uint32_t>(alg);
      });
  const auto exec = executor.run(algos, schedule);
  EXPECT_EQ(exec.causality_violations, 0u);
  EXPECT_EQ(exec.outputs[0], solo_a.outputs);
  EXPECT_EQ(exec.outputs[1], solo_b.outputs);
  // Interleaving means no big-round carries both algorithms' messages on one
  // edge: max load per big-round is 1 here (each algorithm's flood is 1 per
  // direction per round).
  EXPECT_LE(exec.max_edge_load, 1u);
}

TEST(Executor, LoadAccountingMatchesHandCount) {
  const auto g = make_path(2);
  PingPong algo(4, 2);
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  // All four rounds at the same... not allowed (strictly increasing). Use
  // consecutive big-rounds; each big-round carries exactly one message.
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId, std::uint32_t r) { return r - 1; });
  const auto exec = executor.run(algos, schedule);
  EXPECT_EQ(exec.num_big_rounds, 4u);
  ASSERT_EQ(exec.max_load_per_big_round.size(), 4u);
  for (const auto load : exec.max_load_per_big_round) EXPECT_EQ(load, 1u);
  EXPECT_EQ(exec.adaptive_physical_rounds(), 4u);
  const auto fixed = exec.fixed_phase(2);
  EXPECT_EQ(fixed.physical_rounds, 8u);
  EXPECT_EQ(fixed.overflowing_phases, 0u);
}

}  // namespace
}  // namespace dasched
