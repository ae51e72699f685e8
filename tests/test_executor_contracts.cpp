// Failure-injection tests: the executor must *reject* invalid algorithms and
// invalid schedules loudly (death tests on the CHECK contracts), and must
// report -- not hide -- semantically broken-but-legal schedules.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algos/broadcast.hpp"
#include "congest/executor.hpp"
#include "congest/program_arena.hpp"
#include "congest/simulator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "reference_executor.hpp"

namespace dasched {
namespace {

/// An algorithm whose single program misbehaves in a configurable way.
class MisbehavingAlgorithm final : public DistributedAlgorithm {
 public:
  enum class Mode {
    kSendToNonNeighbor,
    kDoubleSendToNeighbor,
    kOversizedPayload,
    kBandwidthHog,  // valid per-program, but two instances collide (solo only)
  };

  MisbehavingAlgorithm(Mode mode, std::uint32_t rounds)
      : DistributedAlgorithm(1), mode_(mode), rounds_(rounds) {}

  std::string name() const override { return "misbehaving"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;

  Mode mode() const { return mode_; }

 private:
  Mode mode_;
  std::uint32_t rounds_;
};

class MisbehavingProgram final : public NodeProgram {
 public:
  MisbehavingProgram(MisbehavingAlgorithm::Mode mode, NodeId self)
      : mode_(mode), self_(self) {}

  void on_round(VirtualContext& ctx) override {
    using Mode = MisbehavingAlgorithm::Mode;
    if (self_ != 0) return;
    switch (mode_) {
      case Mode::kSendToNonNeighbor:
        ctx.send(ctx.num_nodes() - 1, {1});  // path graph: not adjacent to 0
        break;
      case Mode::kDoubleSendToNeighbor:
        ctx.send(1, {1});
        ctx.send(1, {2});
        break;
      case Mode::kOversizedPayload: {
        Payload big(kDefaultMaxPayloadWords + 1, 7);
        ctx.send(1, std::move(big));
        break;
      }
      case Mode::kBandwidthHog:
        ctx.send(1, {self_});
        break;
    }
  }

 private:
  MisbehavingAlgorithm::Mode mode_;
  NodeId self_;
};

NodeProgram& MisbehavingAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<MisbehavingProgram>(mode_, node);
}

using Mode = MisbehavingAlgorithm::Mode;

TEST(ExecutorContracts, RejectsSendToNonNeighbor) {
  const auto g = make_path(4);
  MisbehavingAlgorithm algo(Mode::kSendToNonNeighbor, 2);
  EXPECT_DEATH((void)solo_run(g, algo), "non-neighbor");
}

TEST(ExecutorContracts, RejectsDoubleSendToSameNeighbor) {
  const auto g = make_path(4);
  MisbehavingAlgorithm algo(Mode::kDoubleSendToNeighbor, 2);
  EXPECT_DEATH((void)solo_run(g, algo), "two messages to one neighbor");
}

// The oracle enforces the send contract itself, so a conformance test cannot
// run a program to the end that the engine aborts on.
TEST(OracleContractDeathTest, DoubleSendAbortsOracleAndEngine) {
  const auto g = make_path(4);
  MisbehavingAlgorithm algo(Mode::kDoubleSendToNeighbor, 2);
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::lockstep(algos, g.num_nodes());
  EXPECT_DEATH((void)ReferenceExecutor(g).run(algos, schedule),
               "two messages to one neighbor in one round");
  EXPECT_DEATH((void)Executor(g).run(algos, schedule),
               "two messages to one neighbor in one round");
}

TEST(ExecutorContracts, RejectsOversizedPayload) {
  const auto g = make_path(4);
  MisbehavingAlgorithm algo(Mode::kOversizedPayload, 2);
  EXPECT_DEATH((void)solo_run(g, algo), "word budget");
}

TEST(ExecutorContracts, SoloEnforcesUnitBandwidth) {
  // Two bandwidth hogs scheduled into the SAME big-round over one edge: the
  // unit-capacity check must fire (this is what makes solo_run a CONGEST
  // simulator rather than a message bus).
  const auto g = make_path(4);
  MisbehavingAlgorithm a(Mode::kBandwidthHog, 2);
  MisbehavingAlgorithm b(Mode::kBandwidthHog, 2);
  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  Executor executor(g, cfg);
  const DistributedAlgorithm* algos[] = {&a, &b};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId, std::uint32_t r) { return r - 1; });
  EXPECT_DEATH(
      (void)executor.run(algos, schedule),
      "bandwidth");
}

TEST(ExecutorContracts, SchedulerBigRoundsMayCarryManyMessages) {
  // Without the solo flag, co-scheduling is legal and the load is recorded.
  const auto g = make_path(4);
  MisbehavingAlgorithm a(Mode::kBandwidthHog, 2);
  MisbehavingAlgorithm b(Mode::kBandwidthHog, 2);
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&a, &b};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId, std::uint32_t r) { return r - 1; });
  const auto exec = executor.run(algos, schedule);
  EXPECT_EQ(exec.max_edge_load, 2u);
}

TEST(ExecutorContracts, RejectsNonMonotoneSchedule) {
  const auto g = make_path(3);
  BroadcastAlgorithm algo(0, 3, 1, 1);
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId, std::uint32_t r) {
        return r == 2 ? 0u : r;  // round 2 before round 1
      });
  EXPECT_DEATH((void)executor.run(algos, schedule),
               "strictly increasing");
}

TEST(ExecutorContracts, RejectsGappySchedule) {
  const auto g = make_path(3);
  BroadcastAlgorithm algo(0, 3, 1, 1);
  Executor executor(g, {});
  const DistributedAlgorithm* algos[] = {&algo};
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [](std::size_t, NodeId, std::uint32_t r) {
        return r == 2 ? kNeverScheduled : r;  // hole at r=2
      });
  EXPECT_DEATH((void)executor.run(algos, schedule),
               "gap");
}

TEST(ExecutorContracts, SendDuringFinishDies) {
  class FinishSender final : public NodeProgram {
   public:
    void on_round(VirtualContext&) override {}
    void on_finish(VirtualContext& ctx) override {
      if (ctx.self() == 0) ctx.send(1, {1});
    }
  };
  class FinishSenderAlgo final : public DistributedAlgorithm {
   public:
    FinishSenderAlgo() : DistributedAlgorithm(1) {}
    std::string name() const override { return "finish-sender"; }
    std::uint32_t rounds() const override { return 1; }
    NodeProgram& construct_program(NodeId, ProgramArena& arena) const override {
      return arena.make<FinishSender>();
    }
  };
  const auto g = make_path(2);
  FinishSenderAlgo algo;
  EXPECT_DEATH((void)solo_run(g, algo), "on_finish");
}

// --- ExecutionResult schedule-length measures, edge cases. ---

TEST(ExecutionResultMeasures, EmptyExecution) {
  ExecutionResult r;
  EXPECT_EQ(r.adaptive_physical_rounds(), 0u);
  const auto fixed = r.fixed_phase(4);
  EXPECT_EQ(fixed.physical_rounds, 0u);
  EXPECT_EQ(fixed.overflowing_phases, 0u);
}

TEST(ExecutionResultMeasures, EmptyBigRoundsCountAsOneAdaptiveRound) {
  ExecutionResult r;
  r.num_big_rounds = 3;
  r.max_load_per_big_round = {0, 0, 0};
  // An empty big-round still takes one physical round (the paper's phases
  // advance in lockstep even when no edge is busy).
  EXPECT_EQ(r.adaptive_physical_rounds(), 3u);
}

TEST(ExecutionResultMeasures, SingleOverflowingPhase) {
  ExecutionResult r;
  r.num_big_rounds = 1;
  r.max_load_per_big_round = {9};
  r.max_edge_load = 9;
  EXPECT_EQ(r.adaptive_physical_rounds(), 9u);
  const auto fixed = r.fixed_phase(4);
  EXPECT_EQ(fixed.physical_rounds, 4u);  // phases are fixed-length...
  EXPECT_EQ(fixed.overflowing_phases, 1u);  // ...and the overflow is counted
}

TEST(ExecutionResultMeasures, PhaseLenOne) {
  ExecutionResult r;
  r.num_big_rounds = 4;
  r.max_load_per_big_round = {1, 0, 2, 1};
  const auto fixed = r.fixed_phase(1);
  EXPECT_EQ(fixed.physical_rounds, 4u);
  EXPECT_EQ(fixed.overflowing_phases, 1u);  // only the load-2 phase overflows
  EXPECT_EQ(r.adaptive_physical_rounds(), 1u + 1u + 2u + 1u);
}

TEST(ExecutionResultMeasures, PhaseLenZeroDies) {
  ExecutionResult r;
  EXPECT_DEATH((void)r.fixed_phase(0), "phase_len");
}

// --- Programs built in the executor's arena: every one is destroyed once
// its run is over, whether or not it reached on_finish. ---

/// Counts live instances and owns heap memory, so a program the arena never
/// destroys shows up here and as a leak under the sanitizers.
class CountedProgram final : public NodeProgram {
 public:
  static inline int live = 0;
  explicit CountedProgram(NodeId self) : trail_(std::make_unique<std::vector<NodeId>>(4, self)) {
    ++live;
  }
  ~CountedProgram() override { --live; }
  void on_round(VirtualContext& ctx) override {
    trail_->push_back(ctx.vround());
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {ctx.vround()});
  }
  void write_output(std::vector<std::uint64_t>& words) const override {
    words.push_back(trail_->size());
  }

 private:
  std::unique_ptr<std::vector<NodeId>> trail_;
};

class CountedAlgorithm final : public DistributedAlgorithm {
 public:
  CountedAlgorithm() : DistributedAlgorithm(1) {}
  std::string name() const override { return "counted"; }
  std::uint32_t rounds() const override { return 3; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<CountedProgram>(node);
  }
};

TEST(ProgramLifetime, EveryProgramIsDestroyedAfterCleanAndCrashedRuns) {
  const auto g = make_grid(5, 5);
  const CountedAlgorithm a;
  const CountedAlgorithm b;
  const DistributedAlgorithm* algos[] = {&a, &b};
  const std::uint32_t delays[] = {0, 1};
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);
  FaultPlan plan;
  plan.crashes.push_back({3, 1});
  plan.crashes.push_back({12, 2});
  const FaultInjector injector(g, plan);
  ExecConfig crash_cfg;
  crash_cfg.faults = &injector;

  Executor clean(g, {});
  Executor crashing(g, crash_cfg);
  for (int pass = 0; pass < 3; ++pass) {  // passes 2 and 3 reuse warm arenas
    const auto ok = clean.run(algos, schedule);
    EXPECT_EQ(CountedProgram::live, 0);
    EXPECT_TRUE(ok.all_completed());
    EXPECT_EQ(ok.outputs[1][0].at(0), 4u + 3u);

    const auto crashed = crashing.run(algos, schedule);
    EXPECT_EQ(CountedProgram::live, 0);
    EXPECT_EQ(crashed.completed[0][3], 0u);  // never reached on_finish
    EXPECT_EQ(crashed.completed[1][12], 0u);
    EXPECT_TRUE(crashed.outputs[0][3].empty());
  }
}

struct Pod {
  std::uint64_t a;
  std::uint32_t b;
};

struct Tracked {
  static inline int live = 0;
  Tracked() { ++live; }
  ~Tracked() { --live; }
  alignas(64) std::uint64_t words[20] = {};
};

TEST(ProgramArena, DestroysOnResetAndReusesItsChunks) {
  ProgramArena arena;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<Pod*> pods;
    for (std::uint32_t i = 0; i < 5000; ++i) {
      Pod& p = arena.make<Pod>(Pod{i, i});
      pods.push_back(&p);
      (void)arena.make<Tracked>();
    }
    EXPECT_EQ(Tracked::live, 5000);
    for (std::uint32_t i = 0; i < 5000; ++i) {
      EXPECT_EQ(pods[i]->a, i);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pods[i]) % alignof(Pod), 0u);
    }
    const std::size_t held = arena.capacity_bytes();
    arena.reset();
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_EQ(arena.capacity_bytes(), held);  // rewound, not freed
  }
  Tracked& t = arena.make<Tracked>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&t) % 64, 0u);
  // An object larger than any chunk gets a chunk of its own.
  struct Big {
    std::uint64_t words[1 << 15];
  };
  Big& big = arena.make<Big>();
  big.words[(1 << 15) - 1] = 9;
  EXPECT_EQ(big.words[(1 << 15) - 1], 9u);
  arena.reset();
  EXPECT_EQ(Tracked::live, 0);
}

TEST(ProgramArenaDeathTest, AlgorithmWithoutAProgramHookDies) {
  class Hookless final : public DistributedAlgorithm {
   public:
    Hookless() : DistributedAlgorithm(1) {}
    std::string name() const override { return "hookless"; }
    std::uint32_t rounds() const override { return 1; }
  };
  const auto g = make_path(2);
  const Hookless algo;
  EXPECT_DEATH((void)solo_run(g, algo), "construct_program");
}

}  // namespace
}  // namespace dasched
