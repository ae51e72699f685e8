// The owner-partitioned delivery barrier (congest/executor.cpp,
// docs/PERFORMANCE.md): every big-round bucket has one static owner
// partition of 64-event aligned slot ranges, shared by the gather (per-owner
// histograms, exact CSR offsets from a deterministic prefix-sum, scatter with
// no atomics), the execute shards and the barrier -- and the same owner
// bodies run on the pool or in turn on the calling thread, so results are
// bit-identical at every thread count. These tests drive its edge cases:
//   * buckets on either side of every owner boundary (1, 63, 64, 65,
//     64W - 1, 64W, 64W + 1 and far more than 64W events), clean, faulty and
//     observed,
//   * the execute predicate: a bucket goes to the pool exactly when more
//     than one owner is non-empty,
//   * big-rounds with no messages at all (scaled schedules interleave empty
//     rounds between populated ones),
//   * a unit-capacity overflow detected after the barrier (death tests at 0
//     and 4 threads, and the flight recorder's post-mortem dump),
//   * retries on faulty runs landing in their consumer's owner
//     deterministically across thread counts,
//   * every observer (profiler, flight recorder, telemetry) on
//     faulty runs whose rounds put the owners on the pool: identical
//     observations at every thread count,
//   * zero steady-state allocations through the pooled path, observed or not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "congest/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"
#include "json_reader.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/profiler.hpp"
#include "util/fingerprint.hpp"

namespace dasched {
namespace {

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 7};

struct Instance {
  Graph g;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
};

/// The shared fixture of test_fault / test_parallel_executor: dense enough
/// that most populated big-rounds carry well over 256 messages (the
/// executor's pool threshold for the barrier), so multi-thread runs put the
/// owners on the pool.
Instance make_instance() {
  Rng rng(11);
  Instance in{make_gnp_connected(150, 6.0 / 150, rng), nullptr, {}, {}};
  in.problem = make_mixed_workload(in.g, 10, 4, 77);
  in.problem->run_solo();
  in.algos = in.problem->algorithm_ptrs();
  const auto delays =
      SharedRandomnessScheduler::draw_delays(77, in.algos.size(), 9, 4);
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
}

// --- The owner partition. Owner boundaries fall on multiples of 64 events
// (one inbox-presence word), so buckets one event either side of 64 and of
// 64W sit on every edge of the partition: a lone owner, a second owner
// holding one event, every owner full, one owner spilling over. ---

/// Folds every inbox message (sender, then payload words) into a running hash
/// and sends the hash on to every neighbor, so each output depends on the
/// content and order of every inbox the node read: a message routed to the
/// wrong slot or delivered out of order changes some output.
class FoldProgram final : public NodeProgram {
 public:
  explicit FoldProgram(NodeId self) : hash_(fnv1a_mix(kFnvOffsetBasis, self)) {}
  void on_round(VirtualContext& ctx) override {
    fold(ctx);
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {ctx.vround(), hash_});
  }
  void on_finish(VirtualContext& ctx) override { fold(ctx); }
  void write_output(std::vector<std::uint64_t>& words) const override {
    words.push_back(hash_);
  }

 private:
  void fold(const VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      hash_ = fnv1a_mix(hash_, m.from);
      for (const auto word : m.payload) hash_ = fnv1a_mix(hash_, word);
    }
  }
  std::uint64_t hash_;
};

class FoldAlgorithm final : public DistributedAlgorithm {
 public:
  FoldAlgorithm() : DistributedAlgorithm(5) {}
  std::string name() const override { return "fold"; }
  std::uint32_t rounds() const override { return 4; }
  NodeProgram& construct_program(NodeId v, ProgramArena& arena) const override {
    return arena.make<FoldProgram>(v);
  }
};

/// A connected graph on `n` nodes: lockstep schedules over it put exactly n
/// events in every big-round's bucket.
Graph graph_with_bucket(NodeId n) {
  if (n < 3) return make_path(n);
  Rng rng(n);
  return make_gnp_connected(n, std::min(1.0, 6.0 / n), rng);
}

TEST(TiledBarrier, ExecuteGoesToThePoolPastOneOwner) {
  // At 4 workers a 64-event bucket is one presence word, all of it owner 0's;
  // a 65-event bucket is two words, so owner 1 holds one event.
  const FoldAlgorithm alg;
  const DistributedAlgorithm* algos[] = {&alg};
  for (const NodeId n : {64u, 65u}) {
    SCOPED_TRACE("bucket=" + std::to_string(n));
    const auto g = graph_with_bucket(n);
    MetricsRegistry metrics;
    ExecConfig cfg;
    cfg.num_threads = 4;
    cfg.telemetry = &metrics;
    const auto r = Executor(g, cfg).run(algos, ScheduleTable::lockstep(algos, n));
    ASSERT_EQ(r.num_big_rounds, alg.rounds());
    const std::uint64_t rounds = r.num_big_rounds;
    EXPECT_EQ(metrics.counter("executor.parallel.rounds_serial"), n == 64 ? rounds : 0);
    EXPECT_EQ(metrics.counter("executor.parallel.rounds_parallel"), n == 64 ? 0 : rounds);
  }
}

struct SweepRun {
  std::uint64_t fingerprint = 0;
  ExecutionResult::FaultStats faults;
  std::string profile_json;
  std::string barrier_ring;
};

TEST(TiledBarrier, OwnerBoundariesAreInvisibleInResults) {
  std::set<NodeId> buckets = {1, 63, 64, 65, 3000};
  for (const NodeId workers : {2u, 4u, 7u}) {
    buckets.insert({64 * workers - 1, 64 * workers, 64 * workers + 1});
  }
  const FoldAlgorithm alg;
  const DistributedAlgorithm* algos[] = {&alg};
  // Three modes: clean; faulty with retransmissions; faulty without the
  // reliable layer (raw duplicates) under every observer.
  enum class Mode { kClean, kRetries, kObserved };
  for (const NodeId n : buckets) {
    const auto g = graph_with_bucket(n);
    FaultPlan plan;
    plan.seed = 1800 + n;
    plan.drop_rate = 0.1;
    plan.duplicate_rate = 0.05;
    add_random_crashes(plan, n, 2, 3);
    add_random_outages(plan, g, 2, 3, 2);
    const FaultInjector injector(g, plan);
    const auto lockstep = ScheduleTable::lockstep(algos, n);
    for (const Mode mode : {Mode::kClean, Mode::kRetries, Mode::kObserved}) {
      const RetryPolicy retry{mode == Mode::kRetries ? 2u : 0u};
      const auto schedule = stretch_for_retries(lockstep, retry);
      auto run = [&](std::uint32_t threads) {
        ExecProfiler profiler;
        FlightRecorderConfig fcfg;
        fcfg.capacity = 1u << 15;
        FlightRecorder recorder(fcfg);
        MetricsRegistry metrics;
        ExecConfig cfg;
        cfg.num_threads = threads;
        if (mode != Mode::kClean) {
          cfg.faults = &injector;
          cfg.retry = retry;
        }
        if (mode == Mode::kObserved) {
          cfg.profiler = &profiler;
          cfg.recorder = &recorder;
          cfg.telemetry = &metrics;
        }
        const auto r = Executor(g, cfg).run(algos, schedule);
        SweepRun out{result_fingerprint(r), r.faults, {}, {}};
        if (mode == Mode::kObserved) {
          out.profile_json = profiler.to_json();
          std::ostringstream dump_os;
          recorder.write_json(dump_os, "sweep");
          const std::string dump = dump_os.str();
          out.barrier_ring = dump.substr(dump.find("\"ring\":\"barrier\""));
        }
        return out;
      };
      const SweepRun serial = run(0);
      if (mode != Mode::kClean && n >= 64) {
        EXPECT_GT(serial.faults.dropped(), 0u) << "bucket=" << n;
      }
      for (const std::uint32_t threads : {2u, 4u, 7u}) {
        SCOPED_TRACE("bucket=" + std::to_string(n) + " mode=" +
                     std::to_string(static_cast<int>(mode)) +
                     " threads=" + std::to_string(threads));
        const SweepRun r = run(threads);
        EXPECT_EQ(serial.fingerprint, r.fingerprint);
        EXPECT_EQ(serial.faults, r.faults);
        EXPECT_EQ(serial.profile_json, r.profile_json);
        EXPECT_EQ(serial.barrier_ring, r.barrier_ring);
      }
    }
  }
}

// --- Empty big-rounds: a retry-stretched schedule opens 3 message-free
// big-rounds after every populated one; the barrier and the gather must
// flow through them untouched at every thread count. ---

TEST(TiledBarrier, EmptyBigRoundsBetweenPopulatedOnes) {
  const auto in = make_instance();
  const auto sparse = in.schedule.scaled(4);

  const auto baseline = Executor(in.g, {}).run(in.algos, sparse);
  EXPECT_TRUE(in.problem->verify(baseline).ok());
  // Same outputs as the dense schedule: stretching is pure scheduling.
  const auto dense = Executor(in.g, {}).run(in.algos, in.schedule);
  EXPECT_EQ(baseline.outputs, dense.outputs);

  for (const auto threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecConfig cfg;
    cfg.num_threads = threads;
    const auto r = Executor(in.g, cfg).run(in.algos, sparse);
    expect_identical(baseline, r);
  }
}

// --- A schedule with no events at all. ---

TEST(TiledBarrier, AllNeverScheduledIsANoop) {
  const auto in = make_instance();
  ScheduleTable empty(std::span<const DistributedAlgorithm* const>(in.algos),
                      in.g.num_nodes());
  for (const auto threads : kThreadCounts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    const auto r = Executor(in.g, cfg).run(in.algos, empty);
    EXPECT_EQ(r.num_big_rounds, 0u);
    EXPECT_EQ(r.total_messages, 0u);
    EXPECT_EQ(r.max_load_per_big_round.size(), 0u);
  }
}

// --- Unit-capacity overflow. Two chatter algorithms (every node floods
// every neighbor every round) scheduled in lockstep put load 2 on every
// directed edge of every big-round, and big-round 0 already carries
// 2 * num_directed_edges messages -- far past the pool threshold -- so at 4
// threads the overflowing loads are folded by pooled owners. The check
// after the barrier must fire at every thread count. ---

class ChatterProgram final : public NodeProgram {
 public:
  void on_round(VirtualContext& ctx) override {
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {ctx.vround()});
  }
};

class ChatterAlgorithm final : public DistributedAlgorithm {
 public:
  explicit ChatterAlgorithm(std::uint32_t rounds = 4)
      : DistributedAlgorithm(1), rounds_(rounds) {}
  std::string name() const override { return "chatter"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId, ProgramArena& arena) const override {
    return arena.make<ChatterProgram>();
  }

 private:
  std::uint32_t rounds_;
};

Graph chatter_graph() {
  Rng rng(11);
  return make_gnp_connected(150, 6.0 / 150, rng);
}

class TiledBarrierDeathTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TiledBarrierDeathTest, UnitCapacityOverflowDiesOnTheParallelPath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto g = chatter_graph();
  // Big-round 0 must engage the pooled barrier: every node sends to every
  // neighbor for both algorithms at once.
  ASSERT_GE(2u * g.num_directed_edges(), 256u);

  const ChatterAlgorithm a0, a1;
  const DistributedAlgorithm* algos[] = {&a0, &a1};
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());

  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  cfg.num_threads = GetParam();
  EXPECT_DEATH((void)Executor(g, cfg).run(algos, lockstep),
               "CONGEST bandwidth violated");
}

INSTANTIATE_TEST_SUITE_P(Threads, TiledBarrierDeathTest, ::testing::Values(0u, 4u),
                         [](const auto& info) { return "t" + std::to_string(info.param); });

// The flight recorder's post-mortem is written before the overflow aborts,
// whichever thread folded the overflowing edge.
TEST(TiledBarrierRecorderDeathTest, UnitCapacityOverflowWritesTheDumpAtFourThreads) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto g = chatter_graph();
  const ChatterAlgorithm a0, a1;
  const DistributedAlgorithm* algos[] = {&a0, &a1};
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());

  const std::string path = testing::TempDir() + "dasched_overflow_dump.json";
  std::remove(path.c_str());
  FlightRecorderConfig fcfg;
  fcfg.dump_path = path;
  FlightRecorder recorder(fcfg);
  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  cfg.num_threads = 4;
  cfg.recorder = &recorder;
  EXPECT_DEATH((void)Executor(g, cfg).run(algos, lockstep),
               "CONGEST bandwidth violated");

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "the child wrote no post-mortem dump";
  std::stringstream ss;
  ss << is.rdbuf();
  const auto doc = json::parse(ss.str());
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->get("reason")->string, "unit_capacity_overflow");
  EXPECT_EQ(doc->get("workers")->number, 4.0);
  EXPECT_NE(ss.str().find("\"kind\":\"deliver\""), std::string::npos);
  std::remove(path.c_str());
}

// --- Faulty runs: retransmissions re-enter the barrier rounds later and must
// land in the seg of whichever worker owns the consumer's slot -- including
// slots owned by a different worker than the one that staged the original
// send. Results must match the serial run bit for bit, and bounded retries
// must recover correctness. ---

TEST(TiledBarrier, RetriesCrossTileBoundariesDeterministically) {
  const auto in = make_instance();
  const FaultInjector injector(in.g, [&] {
    FaultPlan plan;
    plan.seed = 4242;
    plan.drop_rate = 0.12;
    return plan;
  }());
  const RetryPolicy retry{3};
  const auto stretched = stretch_for_retries(in.schedule, retry);

  auto run_with = [&](std::uint32_t threads) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.faults = &injector;
    cfg.retry = retry;
    return Executor(in.g, cfg).run(in.algos, stretched);
  };

  const auto baseline = run_with(0);
  EXPECT_GT(baseline.faults.retransmissions, 0u);
  EXPECT_EQ(baseline.causality_violations, 0u)
      << "the retry-stretched schedule absorbs every retransmission";
  for (const auto threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto r = run_with(threads);
    expect_identical(baseline, r);
    EXPECT_EQ(baseline.faults.retransmissions, r.faults.retransmissions);
    EXPECT_EQ(baseline.faults.delivered, r.faults.delivered);
    EXPECT_EQ(baseline.faults.lost, r.faults.lost);
  }
}

// --- Observers at pooled-barrier scale. The mixed instance plus a chatter
// algorithm over its whole horizon puts ~900 fresh messages in every
// big-round with fresh sends, and a messy fault plan (drops, duplicates,
// crashes, outages) runs with the reliable layer (suppressed duplicates,
// retransmissions) and without it (raw duplicates). Every observation must
// be identical at every thread count: the profiler's cells and their
// (round, edge) order, the flight recorder's barrier ring (every fate,
// delivery and round summary -- the worker rings are per worker by design),
// FaultStats, and the executor.* telemetry apart from
// the executor.parallel.* dispatch counts. ---

struct Observation {
  ExecutionResult result;
  std::vector<LoadCell> cells;
  std::string profile_json;
  std::string barrier_ring;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::size_t edge_load_samples = 0;
  double edge_load_sum = 0;
};

struct ObservedInstance {
  Instance base;
  std::unique_ptr<ChatterAlgorithm> chatter;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
};

ObservedInstance make_observed_instance() {
  ObservedInstance in{make_instance(), nullptr, {}, {}};
  const std::uint32_t horizon =
      Executor(in.base.g).run(in.base.algos, in.base.schedule).num_big_rounds;
  in.chatter = std::make_unique<ChatterAlgorithm>(horizon);
  in.algos = in.base.algos;
  in.algos.push_back(in.chatter.get());
  auto delays = SharedRandomnessScheduler::draw_delays(77, in.base.algos.size(), 9, 4);
  delays.push_back(0);
  in.schedule = ScheduleTable::from_delays(in.algos, in.base.g.num_nodes(), delays);
  return in;
}

Observation observe(const ObservedInstance& in, const FaultInjector& injector,
                    RetryPolicy retry, std::uint32_t threads) {
  ExecProfiler profiler;
  FlightRecorderConfig fcfg;
  fcfg.capacity = 1u << 15;
  FlightRecorder recorder(fcfg);
  MetricsRegistry metrics;
  ExecConfig cfg;
  cfg.num_threads = threads;
  cfg.faults = &injector;
  cfg.retry = retry;
  cfg.profiler = &profiler;
  cfg.recorder = &recorder;
  cfg.telemetry = &metrics;
  Observation o;
  o.result = Executor(in.base.g, cfg).run(in.algos, stretch_for_retries(in.schedule, retry));
  o.cells = profiler.cells();
  o.profile_json = profiler.to_json();
  std::ostringstream dump_os;
  recorder.write_json(dump_os, "observed");
  const std::string dump = dump_os.str();
  const auto ring = dump.find("\"ring\":\"barrier\"");
  EXPECT_NE(ring, std::string::npos);
  o.barrier_ring = dump.substr(ring);
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("executor.parallel.", 0) != 0) o.counters.emplace(name, value);
  }
  const auto* edge_load = metrics.histogram("executor.edge_load");
  EXPECT_NE(edge_load, nullptr);
  o.edge_load_samples = edge_load->count();
  o.edge_load_sum = edge_load->sum();
  return o;
}

TEST(TiledBarrier, ObserversAreThreadCountInvariantAtPooledScale) {
  const auto in = make_observed_instance();
  FaultPlan plan;
  plan.seed = 2024;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.03;
  add_random_crashes(plan, in.base.g.num_nodes(), 3, 10);
  add_random_outages(plan, in.base.g, 4, 12, 4);
  const FaultInjector injector(in.base.g, plan);

  for (const RetryPolicy retry : {RetryPolicy{0}, RetryPolicy{2}}) {
    SCOPED_TRACE("max_retries=" + std::to_string(retry.max_retries));
    ExecProfiler shape;
    {
      ExecConfig cfg;
      cfg.faults = &injector;
      cfg.retry = retry;
      cfg.profiler = &shape;
      (void)Executor(in.base.g, cfg).run(in.algos, stretch_for_retries(in.schedule, retry));
    }
    for (std::uint32_t t = 0; t < shape.rounds_used(); ++t) {
      const std::uint64_t fresh = shape.round_messages(t) - shape.round_retries(t);
      if (fresh > 0) {
        EXPECT_GE(fresh, 256u) << "round " << t;
      }
    }

    const Observation serial = observe(in, injector, retry, 0);
    EXPECT_GT(serial.result.faults.dropped(), 0u);
    EXPECT_GT(serial.result.faults.duplicated + serial.result.faults.duplicates_suppressed, 0u);
    EXPECT_TRUE(std::is_sorted(serial.cells.begin(), serial.cells.end()));
    EXPECT_NE(serial.barrier_ring.find("\"kind\":\"drop-random\""), std::string::npos);
    for (const std::uint32_t threads : {2u, 4u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const Observation o = observe(in, injector, retry, threads);
      expect_identical(serial.result, o.result);
      EXPECT_EQ(serial.result.faults, o.result.faults);
      EXPECT_TRUE(serial.cells == o.cells);
      EXPECT_EQ(serial.profile_json, o.profile_json);
      EXPECT_EQ(serial.barrier_ring, o.barrier_ring);
      EXPECT_EQ(serial.counters, o.counters);
      EXPECT_EQ(serial.edge_load_samples, o.edge_load_samples);
      EXPECT_EQ(serial.edge_load_sum, o.edge_load_sum);
    }
  }
}

// --- Zero steady-state allocations through the pooled barrier: the second
// run of a warmed 4-thread executor must not allocate, neither bare nor with
// the profiler and flight recorder attached. ---

TEST(TiledBarrier, ZeroSteadyStateAllocationsThroughTheTiledPath) {
  const auto in = make_instance();
  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "observed" : "bare");
    ExecProfiler profiler;
    FlightRecorder recorder(FlightRecorderConfig{});
    ExecConfig cfg;
    cfg.num_threads = 4;
    if (observed) {
      cfg.profiler = &profiler;
      cfg.recorder = &recorder;
    }
    Executor executor(in.g, cfg);
    const auto first = executor.run(in.algos, in.schedule);
    const auto second = executor.run(in.algos, in.schedule);
    expect_identical(first, second);
    EXPECT_EQ(second.hot_path_allocs, 0u)
        << "warmed pooled runs must stay off the allocator";
  }
}

}  // namespace
}  // namespace dasched
