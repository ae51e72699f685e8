// The zero-allocation message hot path (docs/PERFORMANCE.md, "Memory layout
// & allocation budget"):
//   * InlinePayload: fixed-capacity inline storage semantics, the capacity
//     boundary at kMaxPayloadWords words, and the hard abort on overflow.
//   * POD discipline: the message types the engine moves by memcpy must stay
//     trivially copyable.
//   * Engine equivalence: the arena-backed executor must be bit-identical
//     across thread counts, across repeated runs of one (warmed-up) Executor,
//     and under fault injection -- the CSR inbox rewrite is pure perf.
//   * The steady-state allocation contract itself: this binary links
//     util/alloc_hooks.cpp, so ExecutionResult::hot_path_allocs is a real
//     allocator measurement and must read ZERO from the second run onward,
//     clean and on faulty runs whose retransmissions park in the recycled
//     due-round lanes.
#include <gtest/gtest.h>

#include <algorithm>

#include "algos/aggregate.hpp"
#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "analysis/analyzer.hpp"
#include "congest/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/alloc_counter.hpp"

namespace dasched {
namespace {

// --- InlinePayload semantics. ---

static_assert(std::is_trivially_copyable_v<InlinePayload>);

TEST(InlinePayload, BasicSemantics) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.capacity(), kMaxPayloadWords);

  p.push_back(7);
  p.push_back(11);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 7u);
  EXPECT_EQ(p.at(1), 11u);
  EXPECT_EQ(p.front(), 7u);
  EXPECT_EQ(p.back(), 11u);

  const Payload q{7, 11};
  EXPECT_EQ(p, q);
  EXPECT_FALSE(p == Payload{7});
  EXPECT_FALSE(p == (Payload{7, 12}));

  std::uint64_t sum = 0;
  for (const auto w : p) sum += w;
  EXPECT_EQ(sum, 18u);

  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p == q);
}

TEST(InlinePayload, FillConstructorAndEqualityIgnoreStaleTail) {
  // Equality must compare only the live prefix: a payload that shrank still
  // holds stale words beyond size().
  Payload a(3, 5);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a, (Payload{5, 5, 5}));
  a.clear();
  a.push_back(5);
  EXPECT_EQ(a, Payload{5});
}

TEST(InlinePayload, CapacityBoundaryHoldsExactlyKWords) {
  Payload p;
  for (std::uint64_t i = 0; i < kMaxPayloadWords; ++i) p.push_back(i);
  EXPECT_EQ(p.size(), kMaxPayloadWords);
  const Payload full(kMaxPayloadWords, 9);
  EXPECT_EQ(full.size(), kMaxPayloadWords);
}

TEST(InlinePayloadDeathTest, PushBeyondCapacityAborts) {
  Payload p(kMaxPayloadWords, 1);
  EXPECT_DEATH(p.push_back(2), "word budget");
}

TEST(InlinePayloadDeathTest, OversizedConstructionAborts) {
  EXPECT_DEATH(Payload(kMaxPayloadWords + 1, 1), "word budget");
  // The initializer-list constructor enforces the same budget.
  EXPECT_DEATH((Payload{1, 2, 3, 4, 5, 6}), "word budget");
}

// --- Engine equivalence: the arena/CSR engine is pure perf. ---

struct Instance {
  Graph g;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
};

Instance make_instance() {
  Rng rng(11);
  Instance in{make_gnp_connected(150, 6.0 / 150, rng), nullptr, {}, {}};
  in.problem = make_mixed_workload(in.g, 10, 4, 77);
  in.problem->run_solo();
  in.algos = in.problem->algorithm_ptrs();
  const auto delays = SharedRandomnessScheduler::draw_delays(77, in.algos.size(), 9, 4);
  in.schedule = ScheduleTable::from_delays(in.algos, in.g.num_nodes(), delays);
  return in;
}

void expect_identical(const ExecutionResult& a, const ExecutionResult& b) {
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.causality_violations, b.causality_violations);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.num_big_rounds, b.num_big_rounds);
  EXPECT_EQ(a.max_load_per_big_round, b.max_load_per_big_round);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
  EXPECT_EQ(a.faults, b.faults);
}

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 7};

TEST(HotPathEngine, CleanRunsIdenticalAcrossThreadCounts) {
  const Instance in = make_instance();
  ExecutionResult serial;
  for (const auto threads : kThreadCounts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    const auto result = Executor(in.g, cfg).run(in.algos, in.schedule);
    if (threads == 0) {
      serial = result;
      EXPECT_TRUE(result.all_completed());
    } else {
      expect_identical(serial, result);
    }
  }
}

FaultPlan messy_plan() {
  FaultPlan plan;
  plan.seed = 2024;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.03;
  return plan;
}

TEST(HotPathEngine, FaultyRunsIdenticalAcrossThreadCounts) {
  const Instance in = make_instance();
  FaultPlan plan = messy_plan();
  add_random_crashes(plan, in.g.num_nodes(), 3, 10);
  const FaultInjector injector(in.g, plan);
  RetryPolicy retry;
  retry.max_retries = 2;
  const auto stretched = stretch_for_retries(in.schedule, retry);

  ExecutionResult serial;
  for (const auto threads : kThreadCounts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.faults = &injector;
    cfg.retry = retry;
    const auto result = Executor(in.g, cfg).run(in.algos, stretched);
    if (threads == 0) {
      serial = result;
    } else {
      expect_identical(serial, result);
    }
  }
}

TEST(HotPathEngine, RepeatedRunsOfOneExecutorAreIdentical) {
  // Scratch arenas are recycled across runs; recycling must be invisible.
  const Instance in = make_instance();
  ExecConfig cfg;
  cfg.num_threads = 2;
  Executor executor(in.g, cfg);
  const auto first = executor.run(in.algos, in.schedule);
  const auto second = executor.run(in.algos, in.schedule);
  const auto third = executor.run(in.algos, in.schedule);
  expect_identical(first, second);
  expect_identical(first, third);
}

// --- The steady-state allocation contract, measured. ---

TEST(HotPathAllocations, CountersAreLinkedIntoThisBinary) {
  ASSERT_TRUE(alloc_counting_linked());
  const std::uint64_t before = alloc_count();
  // A direct operator-new call: new-*expressions* may be elided by the
  // optimizer, direct calls may not.
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_GT(alloc_count(), before);
}

// ScheduleProblem::congestion() is summed once when the solo results are set,
// by run_solo or adopt_solo; every call after that returns the same value as
// a fresh per-edge sum and allocates nothing.
TEST(HotPathAllocations, CongestionIsSummedOnceWhenSoloResultsAreSet) {
  ASSERT_TRUE(alloc_counting_linked());
  Rng rng(5);
  const auto g = make_gnp_connected(60, 0.1, rng);
  auto problem = make_mixed_workload(g, 8, 3, 5);
  problem->run_solo();
  std::vector<std::uint32_t> loads(g.num_directed_edges(), 0);
  for (std::size_t a = 0; a < problem->size(); ++a) {
    for (std::uint32_t d = 0; d < loads.size(); ++d) {
      loads[d] += problem->solo(a).pattern.edge_load(d);
    }
  }
  const std::uint32_t expected = *std::max_element(loads.begin(), loads.end());
  ASSERT_GT(expected, 0u);

  std::uint64_t before = alloc_count();
  const std::uint32_t first = problem->congestion();
  const std::uint32_t second = problem->congestion();
  EXPECT_EQ(alloc_count(), before);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);

  auto adopted = make_mixed_workload(g, 8, 3, 5);
  adopted->adopt_solo({problem->solo_results().begin(), problem->solo_results().end()});
  before = alloc_count();
  EXPECT_EQ(adopted->congestion(), expected);
  EXPECT_EQ(alloc_count(), before);
}

// Adopting an exact certificate as a solo profile copies the flat output
// table (words and offsets) and the pattern's fixed vectors (its cells and
// per-edge loads), not one vector per node or per round: at most 4
// allocations. Moving the certificate in allocates nothing.
TEST(HotPathAllocations, ExactCertificateToSoloCopiesNoPerRoundVectors) {
  ASSERT_TRUE(alloc_counting_linked());
  const auto g = make_grid(6, 6);
  const BfsAlgorithm alg(0, 12, 3);
  auto cert = analysis::analyze(g, alg);
  ASSERT_TRUE(cert.exact() && cert.has_outputs);
  ASSERT_GT(cert.pattern.last_message_round(), 4u);
  std::uint64_t before = alloc_count();
  const SoloRunResult solo = cert.to_solo();
  EXPECT_LE(alloc_count() - before, 4u);
  EXPECT_EQ(solo.outputs, cert.outputs);
  EXPECT_TRUE(std::ranges::equal(solo.pattern.cells(), cert.pattern.cells()));

  before = alloc_count();
  const SoloRunResult moved = std::move(cert).to_solo();
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_EQ(moved.outputs, solo.outputs);
  EXPECT_TRUE(std::ranges::equal(moved.pattern.cells(), solo.pattern.cells()));
}

// A whole warm run -- program construction, the big-round loop, finish and
// output collection -- allocates only the ExecutionResult's own tables: a
// fixed number per algorithm (3k + 3 today), whatever n is. Broadcast, BFS
// and aggregate programs own no heap memory, so every allocation counted is
// the engine's.
TEST(HotPathAllocations, WholeRunAllocationsDoNotGrowWithN) {
  ASSERT_TRUE(alloc_counting_linked());
  auto whole_run_allocs = [](NodeId n) {
    Rng rng(21);
    const Graph g = make_gnp_connected(n, 6.0 / n, rng);
    std::vector<std::unique_ptr<DistributedAlgorithm>> owned;
    for (std::uint32_t i = 0; i < 3; ++i) {
      owned.push_back(std::make_unique<BroadcastAlgorithm>(i, 4, 100 + i, 10 + i));
      owned.push_back(std::make_unique<BfsAlgorithm>(n - 1 - i, 5, 20 + i));
      owned.push_back(std::make_unique<AggregateAlgorithm>(n / 2 + i, 2, 30 + i));
    }
    std::vector<const DistributedAlgorithm*> algos;
    std::vector<std::uint32_t> delays;
    for (const auto& a : owned) {
      delays.push_back(static_cast<std::uint32_t>(algos.size() % 4));
      algos.push_back(a.get());
    }
    const auto schedule = ScheduleTable::from_delays(algos, n, delays);
    Executor executor(g, {});
    const auto warm = executor.run(algos, schedule);
    const std::uint64_t before = alloc_count();
    const auto steady = executor.run(algos, schedule);
    const std::uint64_t allocations = alloc_count() - before;
    expect_identical(warm, steady);
    EXPECT_TRUE(steady.all_completed());
    EXPECT_LE(allocations, 4 * algos.size() + 8) << "n = " << n;
    return allocations;
  };
  EXPECT_EQ(whole_run_allocs(100), whole_run_allocs(400));
}

TEST(HotPathAllocations, SteadyStateMessagePathIsAllocationFree) {
  // The mixed workload's programs may allocate internally, so this contract
  // is checked with the flood-style schedule the perf bench uses: broadcast
  // is allocation-free in on_round.
  Rng rng(5);
  const Graph g = make_gnp_connected(200, 6.0 / 200, rng);
  auto problem = make_mixed_workload(g, 6, 3, 55);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  const auto delays =
      SharedRandomnessScheduler::draw_delays(55, algos.size(), 5, 3);
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

  Executor executor(g, {});
  const auto warm = executor.run(algos, schedule);  // grows arenas
  const auto steady = executor.run(algos, schedule);
  expect_identical(warm, steady);
  // The warmed-up big-round loop itself must be allocation-free *except* for
  // what the programs allocate. The mixed workload is not guaranteed
  // allocation-free, so assert the engine's floor via a second executor on
  // the same schedule: the delta between runs must not grow.
  const auto third = executor.run(algos, schedule);
  EXPECT_EQ(steady.hot_path_allocs, third.hot_path_allocs);
}

/// Allocation-free flood program (mirrors bench_e13): every on_round
/// allocation observed while running it is the engine's fault.
class FloodProgram final : public NodeProgram {
 public:
  explicit FloodProgram(NodeId self) : self_(self) {}
  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    const Payload p{std::uint64_t{self_}, std::uint64_t{ctx.vround()}, acc_};
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, p);
  }
  void on_finish(VirtualContext& ctx) override { absorb(ctx); }
  void write_output(std::vector<std::uint64_t>& words) const override {
    words.push_back(acc_);
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      for (const auto w : m.payload) acc_ ^= w + 0x9e3779b97f4a7c15ull + m.from;
    }
  }
  NodeId self_;
  std::uint64_t acc_ = 0;
};

class FloodAlgorithm final : public DistributedAlgorithm {
 public:
  FloodAlgorithm(std::uint32_t rounds, std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), rounds_(rounds) {}
  std::string name() const override { return "flood"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<FloodProgram>(node);
  }

 private:
  std::uint32_t rounds_;
};

TEST(HotPathAllocations, WarmedEngineReportsZeroHotPathAllocs) {
  Rng rng(13);
  const Graph g = make_gnp_connected(300, 6.0 / 300, rng);
  std::vector<std::unique_ptr<FloodAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < 5; ++a) {
    owned.push_back(std::make_unique<FloodAlgorithm>(8, 900 + a));
    algos.push_back(owned.back().get());
    delays.push_back(static_cast<std::uint32_t>(a));
  }
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

  // Telemetry reads the run's per-round record after the loop, so a
  // registry-attached run allocates nothing inside it either.
  for (const bool with_telemetry : {false, true}) {
    for (const std::uint32_t threads : {0u, 2u}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " telemetry=" << with_telemetry);
      MetricsRegistry metrics;
      ExecConfig cfg;
      cfg.num_threads = threads;
      if (with_telemetry) cfg.telemetry = &metrics;
      Executor executor(g, cfg);
      const auto warm = executor.run(algos, schedule);
      EXPECT_GT(warm.total_messages, 0u);
      const auto steady = executor.run(algos, schedule);
      expect_identical(warm, steady);
      EXPECT_EQ(steady.hot_path_allocs, 0u) << "steady-state big-round loop allocated";
      EXPECT_EQ(executor.run(algos, schedule).hot_path_allocs, 0u);
    }
  }
}

TEST(HotPathAllocations, WarmedFaultyEngineWithRetriesReportsZeroHotPathAllocs) {
  // The perfbench flood_faulty shape: G(1000, 6/n), 16 staggered 10-round
  // floods, 5% drops, 1% duplicates, 7 retries on the stretched schedule.
  // Retransmissions park in recycled due-round lanes and extend the horizon
  // into reserved headroom, so a warm run allocates nothing on this path.
  constexpr NodeId kNodes = 1000;
  Rng rng(17);
  const Graph g = make_gnp_connected(kNodes, 6.0 / kNodes, rng);
  std::vector<std::unique_ptr<FloodAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < 16; ++a) {
    owned.push_back(std::make_unique<FloodAlgorithm>(10, 700 + a));
    algos.push_back(owned.back().get());
    delays.push_back(static_cast<std::uint32_t>(a));
  }
  RetryPolicy retry;
  retry.max_retries = 7;
  const auto schedule = stretch_for_retries(
      ScheduleTable::from_delays(algos, g.num_nodes(), delays), retry);
  FaultPlan plan;
  plan.seed = 31;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.01;
  const FaultInjector injector(g, plan);

  for (const std::uint32_t threads : {0u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.faults = &injector;
    cfg.retry = retry;
    Executor executor(g, cfg);
    const auto warm = executor.run(algos, schedule);
    ASSERT_GT(warm.faults.retransmissions, 0u);
    for (int run = 2; run <= 3; ++run) {
      const auto steady = executor.run(algos, schedule);
      EXPECT_EQ(steady.hot_path_allocs, 0u) << "run " << run;
      EXPECT_EQ(result_fingerprint(steady), result_fingerprint(warm));
      EXPECT_EQ(steady.faults, warm.faults);
    }
  }
}

// --- The width-specialization matrix. The engine derives one payload width
// per run and dispatches to a width-specialized run_impl<W>
// (congest/executor.cpp); every supported width must reproduce the
// fingerprints of the fixed-width engine this layout replaced, bit for bit,
// clean and faulty, at every thread count. The goldens below were captured
// from the pre-compaction engine on this exact workload -- they pin the
// delivery order, the fault fates, and the outputs across the layout change
// and must never be re-derived from the current binary. ---

/// Order-sensitive flood at an exact payload width: the accumulator chains
/// (acc >> 7) through every absorbed word, so any reordering or corruption
/// of inbox contents changes the fingerprint.
class WidthProgram final : public NodeProgram {
 public:
  WidthProgram(NodeId self, std::uint32_t width) : self_(self), width_(width) {}
  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    Payload p;
    for (std::uint32_t q = 0; q < width_; ++q) {
      p.push_back((std::uint64_t{self_} << 32) ^ (std::uint64_t{ctx.vround()} << 8) ^ q);
    }
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, p);
  }
  void on_finish(VirtualContext& ctx) override { absorb(ctx); }
  void write_output(std::vector<std::uint64_t>& words) const override {
    words.push_back(acc_);
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      acc_ ^= 0x9e3779b97f4a7c15ull + m.from;
      for (const auto w : m.payload) acc_ += w ^ (acc_ >> 7);
    }
  }
  NodeId self_;
  std::uint32_t width_;
  std::uint64_t acc_ = 0;
};

/// Declares its exact payload width, so the run width is that width, which
/// the test sweeps -- pinning every run_impl<W> instantiation in turn.
class WidthAlgorithm final : public DistributedAlgorithm {
 public:
  WidthAlgorithm(std::uint32_t width, std::uint32_t rounds, std::uint64_t seed)
      : DistributedAlgorithm(seed), width_(width), rounds_(rounds) {}
  std::string name() const override { return "width-flood"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<WidthProgram>(node, width_);
  }
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = width_;
    return f;
  }

 private:
  std::uint32_t width_;
  std::uint32_t rounds_;
};

struct WidthGolden {
  std::uint32_t width;
  std::uint64_t clean;
  std::uint64_t faulty;
};

// Captured from the pre-change engine (fixed-width VMessage arenas); see the
// section comment above. Do not regenerate.
constexpr WidthGolden kWidthGoldens[] = {
    {1u, 0x8086ca339a15e153ull, 0xebb394a98fb09179ull},
    {2u, 0x27a35e1efb2dba43ull, 0x04554c82c9c18771ull},
    {3u, 0xa5be3d5b36f65f97ull, 0x36c13c50954f6766ull},
    {4u, 0x8b083eb6db62bcd3ull, 0xb1a26ff3fb0d5fc1ull},
    {5u, 0xca9d4f3545008647ull, 0x488d3e7e7a9bd5d9ull},
};

TEST(WidthMatrix, EveryWidthMatchesPreChangeGoldensCleanAndFaulty) {
  Rng rng(11);
  const Graph g = make_gnp_connected(150, 6.0 / 150, rng);
  for (const auto& golden : kWidthGoldens) {
    SCOPED_TRACE("width=" + std::to_string(golden.width));
    std::vector<std::unique_ptr<WidthAlgorithm>> owned;
    std::vector<const DistributedAlgorithm*> algos;
    std::vector<std::uint32_t> delays;
    for (std::size_t a = 0; a < 6; ++a) {
      owned.push_back(std::make_unique<WidthAlgorithm>(golden.width, 8, 900 + a));
      algos.push_back(owned.back().get());
      delays.push_back(static_cast<std::uint32_t>(a));
    }
    const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

    FaultPlan plan = messy_plan();
    add_random_crashes(plan, g.num_nodes(), 3, 10);
    const FaultInjector injector(g, plan);
    RetryPolicy retry;
    retry.max_retries = 2;
    const auto stretched = stretch_for_retries(schedule, retry);

    for (const std::uint32_t threads : {0u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExecConfig cfg;
      cfg.num_threads = threads;
      const auto clean = Executor(g, cfg).run(algos, schedule);
      EXPECT_TRUE(clean.all_completed());
      EXPECT_EQ(result_fingerprint(clean), golden.clean);

      ExecConfig fcfg = cfg;
      fcfg.faults = &injector;
      fcfg.retry = retry;
      const auto faulty = Executor(g, fcfg).run(algos, stretched);
      EXPECT_EQ(result_fingerprint(faulty), golden.faulty);
    }
  }
}

}  // namespace
}  // namespace dasched
