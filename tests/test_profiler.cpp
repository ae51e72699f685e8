// Execution-observatory tests (docs/OBSERVABILITY.md):
//   * ExecProfiler only observes: attaching it reproduces the pre-profiler
//     golden fingerprint exactly, and profiled runs (reliable and faulty) are
//     bit-identical across thread counts -- including the profiler's own
//     snapshot, cell for cell and byte for byte.
//   * The measured load surface equals the schedule verifier's static
//     prediction on a reliable network (the divergence monitor's zero point),
//     and diverges in the expected directions under drops + retries + crashes
//     (unpredicted retransmission cells, unrealized crashed-sender cells).
//   * The observatory obeys the engine's arena discipline: with profiler AND
//     flight recorder attached, the big-round loop performs zero heap
//     allocations from the second run onward (this binary links
//     util/alloc_hooks.cpp, so that is a measurement).
//   * FlightRecorder: bounded rings keep the newest entries, and dumps are
//     byte-stable across identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>

#include "congest/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/reliable.hpp"
#include "fault/robustness.hpp"
#include "graph/generators.hpp"
#include "json_reader.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "util/alloc_counter.hpp"
#include "util/fingerprint.hpp"
#include "verify/divergence.hpp"
#include "verify/schedule_verifier.hpp"

namespace dasched {
namespace {

// --- The fixed instance shared with test_fault / test_parallel_executor. ---

struct Instance {
  Graph g;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
};

Instance make_instance(std::uint64_t graph_seed = 11, std::uint64_t workload_seed = 77) {
  Rng rng(graph_seed);
  Instance in{make_gnp_connected(150, 6.0 / 150, rng), nullptr, {}, {}};
  in.problem = make_mixed_workload(in.g, 10, 4, workload_seed);
  in.problem->run_solo();
  in.algos = in.problem->algorithm_ptrs();
  const auto delays =
      SharedRandomnessScheduler::draw_delays(workload_seed, in.algos.size(), 9, 4);
  in.schedule = ScheduleTable::from_delays(in.algos, in.g.num_nodes(), delays);
  return in;
}

// The canonical digest lives in congest/executor.hpp (result_fingerprint,
// built on util/fingerprint.hpp); the goldens below were recorded with the
// ad-hoc copy this alias replaced and must stay bit-identical under it.
std::uint64_t fingerprint(const ExecutionResult& r) { return result_fingerprint(r); }

// Golden values of the instance above (see test_fault.cpp, which pins the
// same constants and carries the regeneration instructions). A run with the
// profiler attached must reproduce them exactly -- the profiler only
// observes. Regenerated once for the skip-sampling gnp generator (PR 7).
constexpr std::uint64_t kGoldenOutputHash = 7665479431827327277ULL;
constexpr std::uint64_t kGoldenTotalMessages = 9498;
constexpr std::uint32_t kGoldenBigRounds = 17;
constexpr std::uint32_t kGoldenMaxEdgeLoad = 6;
constexpr std::uint64_t kGoldenEvents = 10050;

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

/// Everything a profiled run exposes, flattened for equality comparison
/// across thread counts.
struct ProfilerSnapshot {
  std::vector<LoadCell> cells;  // (big_round, edge) order
  std::vector<std::uint64_t> round_messages, round_events, round_inbox,
      round_retries;
  std::vector<std::uint32_t> round_max;
  std::uint64_t messages = 0, events = 0, retries = 0;
  std::uint32_t rounds_used = 0, max_load = 0;
  std::string json;

  friend bool operator==(const ProfilerSnapshot&, const ProfilerSnapshot&) = default;
};

ProfilerSnapshot snapshot(const ExecProfiler& p) {
  ProfilerSnapshot s;
  s.cells = p.cells();
  for (std::uint32_t t = 0; t < p.rounds_used(); ++t) {
    s.round_messages.push_back(p.round_messages(t));
    s.round_events.push_back(p.round_events(t));
    s.round_inbox.push_back(p.round_inbox(t));
    s.round_retries.push_back(p.round_retries(t));
    s.round_max.push_back(p.round_max_load(t));
  }
  s.messages = p.total_messages();
  s.events = p.total_events();
  s.retries = p.total_retries();
  s.rounds_used = p.rounds_used();
  s.max_load = p.max_edge_load();
  s.json = p.to_json();
  return s;
}

// --- The profiler only observes. ---

TEST(Profiler, GoldenFingerprintUnchangedWithProfilerAttached) {
  const auto in = make_instance();
  ExecProfiler profiler;
  ExecConfig cfg;
  cfg.profiler = &profiler;
  const auto r = Executor(in.g, cfg).run(in.algos, in.schedule);

  EXPECT_EQ(fingerprint(r), kGoldenOutputHash);
  EXPECT_EQ(r.total_messages, kGoldenTotalMessages);
  EXPECT_EQ(r.num_big_rounds, kGoldenBigRounds);
  EXPECT_EQ(r.max_edge_load, kGoldenMaxEdgeLoad);

  // The profiler's view agrees with the engine's aggregates.
  EXPECT_EQ(profiler.runs(), 1u);
  EXPECT_EQ(profiler.total_messages(), kGoldenTotalMessages);
  EXPECT_EQ(profiler.total_events(), kGoldenEvents);
  EXPECT_EQ(profiler.rounds_used(), kGoldenBigRounds);
  EXPECT_EQ(profiler.max_edge_load(), kGoldenMaxEdgeLoad);
  EXPECT_EQ(profiler.total_retries(), 0u);
  const auto loads = profiler.round_max_loads();
  ASSERT_EQ(loads.size(), r.max_load_per_big_round.size());
  for (std::size_t t = 0; t < loads.size(); ++t) {
    EXPECT_EQ(loads[t], r.max_load_per_big_round[t]);
  }
  // Every message lands in exactly one cell; the histogram saw every cell.
  std::uint64_t cell_sum = 0;
  for (const auto& c : profiler.cells()) cell_sum += c.load;
  EXPECT_EQ(cell_sum, kGoldenTotalMessages);
  EXPECT_EQ(profiler.cell_load_histogram().count(), profiler.cells().size());
}

TEST(Profiler, TopEdgeAndRoundViewsAreConsistent) {
  const auto in = make_instance();
  ExecProfiler profiler;
  ExecConfig cfg;
  cfg.profiler = &profiler;
  (void)Executor(in.g, cfg).run(in.algos, in.schedule);

  const auto top = profiler.top_edges(5);
  ASSERT_FALSE(top.empty());
  ASSERT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].total_load, top[i].total_load);
  }

  EXPECT_EQ(profiler.hot_edges_table(5).data().size(), top.size());
  EXPECT_EQ(profiler.hot_rounds_table(5).data().size(), 5u);

  // The JSON section parses and carries the totals.
  const auto doc = json::parse(profiler.to_json());
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->get("schema")->string, "dasched.profile.v1");
  EXPECT_EQ(doc->get("totals")->get("messages")->number,
            static_cast<double>(kGoldenTotalMessages));
}

// --- Determinism: profiled runs are thread-count invariant, snapshot
// included. ---

TEST(Profiler, ProfiledRunsAreBitIdenticalAcrossThreadCounts) {
  const auto in = make_instance();
  const FaultInjector injector(in.g, [&] {
    FaultPlan plan;
    plan.seed = 2024;
    plan.drop_rate = 0.05;
    add_random_crashes(plan, in.g.num_nodes(), 2, 10);
    return plan;
  }());
  const RetryPolicy retry{2};
  const auto stretched = stretch_for_retries(in.schedule, retry);

  auto run_with = [&](std::uint32_t threads, bool faulty, ExecProfiler* profiler) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.profiler = profiler;
    if (faulty) {
      cfg.faults = &injector;
      cfg.retry = retry;
    }
    return Executor(in.g, cfg).run(in.algos, faulty ? stretched : in.schedule);
  };

  for (const bool faulty : {false, true}) {
    ExecProfiler serial_profiler;
    const auto serial = run_with(0, faulty, &serial_profiler);
    const auto baseline = snapshot(serial_profiler);
    EXPECT_FALSE(baseline.cells.empty());
    for (const std::uint32_t threads : {1u, 2u, 4u, 7u}) {
      ExecProfiler profiler;
      const auto r = run_with(threads, faulty, &profiler);
      expect_identical(serial, r);
      EXPECT_EQ(snapshot(profiler), baseline)
          << "threads=" << threads << " faulty=" << faulty;
    }
  }
}

// --- Measured vs predicted: the divergence monitor's two regimes. ---

TEST(Divergence, MeasuredEqualsPredictedOnReliableRuns) {
  const auto in = make_instance();
  std::vector<LoadCell> predicted;
  const auto vreport = verify::check_schedule(*in.problem, in.schedule, {}, &predicted);
  ASSERT_TRUE(vreport.ok());
  ASSERT_FALSE(predicted.empty());

  ExecProfiler profiler;
  ExecConfig cfg;
  cfg.profiler = &profiler;
  const auto run = Executor(in.g, cfg).run(in.algos, in.schedule);

  // Exact equality, cell for cell: the static model IS the reliable network.
  EXPECT_TRUE(profiler.cells() == predicted);

  verify::DivergenceOptions opts;
  opts.scheduled_big_rounds = vreport.measured.big_rounds;
  const auto div = verify::check_divergence(predicted, profiler, opts);
  EXPECT_TRUE(div.ok());
  EXPECT_EQ(div.errors(), 0u);
  EXPECT_EQ(div.warnings(), 0u);  // zero point: no divergence findings at all
  EXPECT_TRUE(div.has(verify::kCodeDivergenceSummary));

  // The profiler's per-round max loads are the run's, so slack agrees.
  const auto a = analyze_slack(run.max_load_per_big_round, 8);
  const auto b = analyze_slack(profiler.round_max_loads(), 8);
  EXPECT_EQ(a.slack, b.slack);
  EXPECT_EQ(a.min_slack, b.min_slack);
}

TEST(Divergence, FaultyRunsDivergeInTheExpectedDirections) {
  const auto in = make_instance();
  FaultPlan plan;
  plan.seed = 2024;
  plan.drop_rate = 0.05;
  add_random_crashes(plan, in.g.num_nodes(), 2, 10);
  const FaultInjector injector(in.g, plan);
  const RetryPolicy retry{2};
  const auto stretched = stretch_for_retries(in.schedule, retry);

  std::vector<LoadCell> predicted;
  const auto vreport = verify::check_schedule(*in.problem, stretched, {}, &predicted);
  ASSERT_FALSE(predicted.empty());

  ExecProfiler profiler;
  ExecConfig cfg;
  cfg.faults = &injector;
  cfg.retry = retry;
  cfg.profiler = &profiler;
  const auto r = Executor(in.g, cfg).run(in.algos, stretched);
  EXPECT_GT(r.faults.retransmissions, 0u);
  EXPECT_GT(r.faults.skipped_events, 0u);
  EXPECT_EQ(profiler.total_retries(), r.faults.retransmissions);

  verify::DivergenceOptions opts;
  opts.scheduled_big_rounds = vreport.measured.big_rounds;
  const auto div = verify::check_divergence(predicted, profiler, opts);

  // Divergences diagnose, they do not invalidate: still ok().
  EXPECT_TRUE(div.ok());
  EXPECT_GT(div.warnings(), 0u);
  // Retransmissions land in retry slots the static model left empty.
  EXPECT_TRUE(div.has(verify::kCodeDivergenceUnpredicted));
  // Crash-stopped senders never transmit their predicted cells.
  EXPECT_TRUE(div.has(verify::kCodeDivergenceUnrealized));
  EXPECT_TRUE(div.has(verify::kCodeDivergenceSummary));
}

// Digests of check_divergence reports on faulty runs of two seeded problems:
// severity totals, per-code counts and every recorded finding in report
// order, captured before the merge moved to util/load_cells. Do not
// regenerate.
TEST(DivergenceGolden, FaultyRunReportsMatchPinnedDigests) {
  const auto digest = [](const verify::Report& report) {
    Fingerprint fp;
    fp.mix(report.errors()).mix(report.warnings()).mix(report.infos());
    for (const char* code :
         {verify::kCodeDivergenceLoad, verify::kCodeDivergenceUnpredicted,
          verify::kCodeDivergenceUnrealized, verify::kCodeDivergenceRounds,
          verify::kCodeDivergenceSummary}) {
      fp.mix(report.count(code));
    }
    for (const auto& f : report.findings()) {
      fp.mix_bytes(f.code).mix_bytes(f.location.str()).mix_bytes(f.message);
      for (const auto& [name, value] : f.metrics) {
        fp.mix_bytes(name).mix(std::bit_cast<std::uint64_t>(value));
      }
    }
    return fp.digest();
  };
  const struct {
    std::uint64_t graph_seed, workload_seed, fault_seed;
    std::uint64_t golden;
  } kCases[] = {
      {11, 77, 2024, 0x69b6d93293eea3e2ULL},
      {12, 78, 7, 0xd5e3d3f8d15c9177ULL},
  };
  for (const auto& c : kCases) {
    const auto in = make_instance(c.graph_seed, c.workload_seed);
    FaultPlan plan;
    plan.seed = c.fault_seed;
    plan.drop_rate = 0.05;
    plan.duplicate_rate = 0.02;
    add_random_crashes(plan, in.g.num_nodes(), 2, 10);
    const FaultInjector injector(in.g, plan);
    const RetryPolicy retry{2};
    const auto stretched = stretch_for_retries(in.schedule, retry);
    std::vector<LoadCell> predicted;
    const auto vreport = verify::check_schedule(*in.problem, stretched, {}, &predicted);

    ExecProfiler profiler;
    ExecConfig cfg;
    cfg.faults = &injector;
    cfg.retry = retry;
    cfg.profiler = &profiler;
    (void)Executor(in.g, cfg).run(in.algos, stretched);

    verify::DivergenceOptions opts;
    opts.scheduled_big_rounds = vreport.measured.big_rounds;
    opts.tolerance = 1;
    opts.max_findings_per_code = 64;
    const auto d = digest(verify::check_divergence(predicted, profiler, opts));
    EXPECT_EQ(d, c.golden) << "seed " << c.graph_seed << ": " << std::hex << d;
  }
}

// --- Steady-state allocation discipline with the observatory attached. ---

TEST(Profiler, ZeroSteadyStateAllocationsWithObservatoryAttached) {
  ASSERT_TRUE(alloc_counting_linked());
  const auto in = make_instance();

  // Serially and with the barrier's owners on a 4-worker pool.
  for (const std::uint32_t threads : {0u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecProfiler profiler;
    FlightRecorder recorder(FlightRecorderConfig{});  // rings only, no dump path
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.profiler = &profiler;
    cfg.recorder = &recorder;
    Executor executor(in.g, cfg);

    // Run 1 warms the engine arenas, the profiler's cell list, and the rings
    // to their high-water marks.
    const auto warmup = executor.run(in.algos, in.schedule);
    EXPECT_EQ(fingerprint(warmup), kGoldenOutputHash);
    for (int run = 2; run <= 3; ++run) {
      const auto r = executor.run(in.algos, in.schedule);
      EXPECT_EQ(r.hot_path_allocs, 0u) << "run " << run;
      EXPECT_EQ(fingerprint(r), kGoldenOutputHash);
    }
  }
}

// --- Flight recorder. ---

TEST(FlightRecorder, RingOverflowKeepsTheNewestEntries) {
  FlightRecorderConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg);
  rec.begin_run(1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    rec.record(0, FlightRecorder::Kind::kEvent, i, std::uint64_t{i} << 32, i);
  }
  std::ostringstream os;
  rec.write_json(os, "test");
  const auto doc = json::parse(os.str());
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->get("schema")->string, "dasched.flight_recorder.v1");
  EXPECT_EQ(doc->get("reason")->string, "test");
  const auto& rings = doc->get("rings")->array;
  ASSERT_EQ(rings.size(), 2u);  // worker0 + barrier
  const auto& worker = *rings[0];
  EXPECT_EQ(worker.get("recorded")->number, 10.0);
  EXPECT_EQ(worker.get("dropped")->number, 6.0);
  const auto& entries = worker.get("entries")->array;
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front()->get("round")->number, 6.0);  // oldest retained
  EXPECT_EQ(entries.back()->get("round")->number, 9.0);
}

TEST(FlightRecorder, DumpIsByteStableAcrossIdenticalRuns) {
  const auto in = make_instance();
  FaultPlan plan;
  plan.seed = 2024;
  plan.drop_rate = 0.05;
  add_random_crashes(plan, in.g.num_nodes(), 2, 10);
  const FaultInjector injector(in.g, plan);

  auto dump_of_run = [&](std::uint32_t threads) {
    FlightRecorder recorder(FlightRecorderConfig{});
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.faults = &injector;
    cfg.recorder = &recorder;
    (void)Executor(in.g, cfg).run(in.algos, in.schedule);
    // The executor flags the crash-stop faults automatically (no file was
    // written: the config has no dump path).
    EXPECT_EQ(recorder.last_reason(), "crash_stop_faults");
    std::ostringstream os;
    recorder.write_json(os, "post_mortem");
    return os.str();
  };

  const auto serial = dump_of_run(0);
  EXPECT_EQ(dump_of_run(0), serial);  // identical run, identical bytes
  EXPECT_NE(serial.find("\"kind\":\"crash-skip\""), std::string::npos);
  EXPECT_NE(serial.find("\"kind\":\"drop-random\""), std::string::npos);
  ASSERT_NE(json::parse(serial), nullptr);
}

}  // namespace
}  // namespace dasched
