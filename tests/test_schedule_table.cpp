// ScheduleTable edge cases: the degenerate instances every scheduler may hand
// the executor -- zero algorithms, zero-round programs, single-node graphs --
// plus the retry-slot stretch (scaled) used by the reliable-delivery layer
// (fault/reliable.hpp).
#include <gtest/gtest.h>

#include "algos/broadcast.hpp"
#include "congest/executor.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"

namespace dasched {
namespace {

/// A T-round algorithm whose nodes do nothing (but still execute every round
/// and finish). rounds() == 0 is allowed: only on_finish runs.
class NoopAlgorithm final : public DistributedAlgorithm {
 public:
  explicit NoopAlgorithm(std::uint32_t rounds, std::uint64_t seed = 1)
      : DistributedAlgorithm(seed), rounds_(rounds) {}
  std::string name() const override { return "noop"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId, ProgramArena& arena) const override {
    class P final : public NodeProgram {
      void on_round(VirtualContext&) override {}
      void write_output(std::vector<std::uint64_t>& words) const override { words.push_back(7); }
    };
    return arena.make<P>();
  }

 private:
  std::uint32_t rounds_;
};

// --- k = 0: no algorithms at all. ---

TEST(ScheduleTableEdge, NoAlgorithms) {
  const auto g = make_path(4);
  const std::vector<const DistributedAlgorithm*> algos;
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());
  EXPECT_EQ(lockstep.num_algorithms(), 0u);
  EXPECT_EQ(lockstep.num_nodes(), 4u);

  const std::vector<std::uint32_t> delays;
  const auto delayed = ScheduleTable::from_delays(algos, g.num_nodes(), delays);
  EXPECT_EQ(delayed.num_algorithms(), 0u);

  const auto r = Executor(g).run(algos, delayed);
  EXPECT_EQ(r.num_big_rounds, 0u);
  EXPECT_EQ(r.total_messages, 0u);
  EXPECT_TRUE(r.outputs.empty());
  EXPECT_TRUE(r.all_completed());  // vacuously
}

// --- Zero-round programs: only on_finish executes. ---

TEST(ScheduleTableEdge, ZeroRoundProgram) {
  const auto g = make_path(3);
  const NoopAlgorithm zero(0);
  const NoopAlgorithm two(2);
  const std::vector<const DistributedAlgorithm*> algos = {&zero, &two};

  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());
  EXPECT_EQ(lockstep.rounds(0), 0u);
  EXPECT_EQ(lockstep.row(0, 0).size(), 0u);  // empty row, no slots
  EXPECT_EQ(lockstep.at(1, 2, 2), 1u);       // round r at big-round r-1

  const std::vector<std::uint32_t> delays = {5, 1};
  const auto delayed = ScheduleTable::from_delays(algos, g.num_nodes(), delays);
  EXPECT_EQ(delayed.row(0, 1).size(), 0u);
  EXPECT_EQ(delayed.at(1, 1, 1), 1u);

  const auto r = Executor(g).run(algos, delayed);
  EXPECT_TRUE(r.all_completed());  // zero-round algorithm still finishes
  EXPECT_EQ(r.outputs[0][0], (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(r.causality_violations, 0u);
}

// --- Single-node graph: no edges, nothing to send. ---

TEST(ScheduleTableEdge, SingleNodeGraph) {
  const Graph g(1, {});
  const NoopAlgorithm noop(3);
  const BroadcastAlgorithm bcast(0, 2, 99, 2);
  const std::vector<const DistributedAlgorithm*> algos = {&noop, &bcast};

  const auto lockstep = ScheduleTable::lockstep(algos, 1);
  EXPECT_EQ(lockstep.num_nodes(), 1u);
  const auto r = Executor(g).run(algos, lockstep);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.total_messages, 0u);
  EXPECT_EQ(r.max_edge_load, 0u);
}

// --- scaled(): the reliable-delivery stretch. ---

TEST(ScheduleTableEdge, ScaledMultipliesSlotsAndKeepsHoles) {
  const NoopAlgorithm a(3);
  const std::vector<const DistributedAlgorithm*> algos = {&a};
  auto table = ScheduleTable::lockstep(algos, 2);
  table.set(0, 1, 3, kNeverScheduled);  // truncated row: rounds 1..2 only

  const auto scaled = table.scaled(4);
  EXPECT_EQ(scaled.at(0, 0, 1), 0u);
  EXPECT_EQ(scaled.at(0, 0, 2), 4u);
  EXPECT_EQ(scaled.at(0, 0, 3), 8u);
  EXPECT_EQ(scaled.at(0, 1, 2), 4u);
  EXPECT_EQ(scaled.at(0, 1, 3), kNeverScheduled);  // holes preserved

  // Factor 1 is the identity (RetryPolicy{} never stretches).
  const auto same = table.scaled(1);
  EXPECT_EQ(same.at(0, 0, 2), 1u);
  EXPECT_EQ(stretch_for_retries(table, RetryPolicy{}).at(0, 0, 2), 1u);

  // A scaled schedule still executes with identical results, later.
  const Graph g(2, std::vector<std::pair<NodeId, NodeId>>{{0, 1}});
  const auto base = Executor(g).run(algos, table);
  const auto stretched = Executor(g).run(algos, scaled);
  EXPECT_EQ(stretched.outputs, base.outputs);
  EXPECT_EQ(stretched.completed, base.completed);
  EXPECT_EQ(stretched.causality_violations, 0u);
}

}  // namespace
}  // namespace dasched
