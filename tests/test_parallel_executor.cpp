// The parallel big-round execution engine's determinism contract: for every
// thread count, Executor::run must produce ExecutionResults that are
// bit-identical to the serial path -- outputs, loads, violation counts, and
// telemetry counters. The per-(alg, node) RNG streams and the shard-order
// merge of staged messages make this possible; these tests assert it holds
// across shared- and private-scheduler schedules, plus a stress test on a
// large random graph. Also covers the ThreadPool primitive itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "congest/executor.hpp"
#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/parallel.hpp"

namespace dasched {
namespace {

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 7};

/// Core counters that must not depend on the thread count. (The
/// executor.parallel.* counters legitimately vary: they describe how the
/// work was farmed out, not what was computed.)
constexpr const char* kInvariantCounters[] = {
    "executor.events_executed", "executor.big_rounds",
    "executor.messages_sent",   "executor.messages_delivered",
    "executor.causality_violations",
};

void expect_identical(const ExecutionResult& a, const ExecutionResult& b,
                      std::uint32_t num_threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.causality_violations, b.causality_violations);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.num_big_rounds, b.num_big_rounds);
  EXPECT_EQ(a.max_load_per_big_round, b.max_load_per_big_round);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
}

// --- ThreadPool primitive: party i runs once, on worker i; the caller is
// worker 0; idle workers spin, then park. ---

constexpr unsigned kPoolWidths[] = {2, 3, 4, 7};

/// Longer than the pool's spin window (50 us), so every worker parks.
constexpr auto kParkSleep = std::chrono::milliseconds(2);

TEST(ThreadPool, RunsPartyIOnceOnWorkerI) {
  for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    EXPECT_EQ(pool.num_workers(), workers);
    std::vector<std::thread::id> first(workers);
    for (int batch = 0; batch < 20; ++batch) {
      for (std::uint32_t parties = 1; parties <= workers; ++parties) {
        std::vector<std::thread::id> ran_on(workers);
        std::vector<int> hits(workers, 0);
        auto body = [&](std::uint32_t i) {
          ++hits[i];
          ran_on[i] = std::this_thread::get_id();
        };
        pool.run(parties, body);
        for (std::uint32_t i = 0; i < workers; ++i) {
          EXPECT_EQ(hits[i], i < parties ? 1 : 0) << "party " << i;
        }
        EXPECT_EQ(ran_on[0], std::this_thread::get_id());
        for (std::uint32_t i = 0; i < parties; ++i) {
          if (first[i] == std::thread::id{}) first[i] = ran_on[i];
          EXPECT_EQ(ran_on[i], first[i]) << "party " << i << " changed worker";
        }
      }
    }
    // Distinct workers are distinct threads.
    std::sort(first.begin(), first.end());
    EXPECT_EQ(std::unique(first.begin(), first.end()), first.end());
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::vector<std::uint64_t> sums(3, 0);
  auto body = [&](std::uint32_t s) { sums[s] += s + 1; };
  for (int batch = 0; batch < 50; ++batch) pool.run(3, body);
  EXPECT_EQ(sums, (std::vector<std::uint64_t>{50, 100, 150}));
}

TEST(ThreadPool, SingleWorkerRunsOnCaller) {
  ThreadPool pool(1);
  std::thread::id ran_on;
  auto body = [&](std::uint32_t) { ran_on = std::this_thread::get_id(); };
  pool.run(1, body);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ZeroShardsIsANoop) {
  ThreadPool pool(2);
  auto body = [&](std::uint32_t) { FAIL() << "no party should run"; };
  pool.run(0, body);
}

// Back-to-back tiny batches keep the workers spinning; batches separated by
// sleeps past the spin window find them parked. Each batch's writes must be
// visible to the caller when run() returns.
TEST(ThreadPool, StressSpinningAndParkedBatches) {
  for (const unsigned workers : kPoolWidths) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    std::vector<std::uint64_t> counts(workers, 0);
    auto body = [&](std::uint32_t i) { ++counts[i]; };
    constexpr std::uint64_t kTiny = 100'000;
    for (std::uint64_t b = 0; b < kTiny; ++b) {
      pool.run(workers, body);
      ASSERT_EQ(counts[workers - 1], b + 1);
    }
    for (int b = 0; b < 5; ++b) {
      std::this_thread::sleep_for(kParkSleep);
      pool.run(workers, body);
    }
    for (const auto c : counts) EXPECT_EQ(c, kTiny + 5);
  }
}

TEST(ThreadPool, DestroysWhileWorkersSpinOrPark) {
  for (const unsigned workers : kPoolWidths) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::atomic<std::uint32_t> ran{0};
    auto body = [&](std::uint32_t) { ran.fetch_add(1, std::memory_order_relaxed); };
    { ThreadPool never_used(workers); }
    {
      ThreadPool spinning(workers);
      spinning.run(workers, body);
    }  // destroyed within the spin window
    {
      ThreadPool parked(workers);
      parked.run(workers, body);
      std::this_thread::sleep_for(kParkSleep);
    }
    EXPECT_EQ(ran.load(), 2 * workers);
  }
}

// Four 4-worker pools at once oversubscribe the cores; spinning must not
// keep any of them from finishing.
TEST(ThreadPool, OversubscribedPoolsFinish) {
  constexpr unsigned kPools = 4;
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kBatches = 2'000;
  std::vector<std::uint64_t> totals(kPools, 0);
  std::vector<std::thread> callers;
  for (unsigned p = 0; p < kPools; ++p) {
    callers.emplace_back([&totals, p] {
      ThreadPool pool(kWorkers);
      std::vector<std::uint64_t> counts(kWorkers, 0);
      auto body = [&](std::uint32_t i) { ++counts[i]; };
      for (std::uint64_t b = 0; b < kBatches; ++b) pool.run(kWorkers, body);
      for (const auto c : counts) totals[p] += c;
    });
  }
  for (auto& t : callers) t.join();
  for (const auto t : totals) EXPECT_EQ(t, kBatches * kWorkers);
}

TEST(ThreadPoolDeathTest, RejectsMorePartiesThanWorkers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto body = [](std::uint32_t) {};
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.run(3, body);
      },
      "more parties than workers");
}

TEST(ThreadPoolDeathTest, RejectsRunFromInsideAParty) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const std::uint32_t nested_party : {0u, 1u}) {
    SCOPED_TRACE("nested in party " + std::to_string(nested_party));
    EXPECT_DEATH(
        {
          ThreadPool pool(2);
          auto inner = [](std::uint32_t) {};
          auto outer = [&](std::uint32_t i) {
            if (i == nested_party) pool.run(1, inner);
          };
          pool.run(2, outer);
        },
        "not reentrant");
  }
}

// --- Executor determinism across thread counts. ---

TEST(ParallelExecutor, SharedSchedulerScheduleIsThreadCountInvariant) {
  Rng rng(11);
  const auto g = make_gnp_connected(150, 6.0 / 150, rng);
  auto problem = make_mixed_workload(g, 10, 4, 77);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  const auto delays = SharedRandomnessScheduler::draw_delays(77, algos.size(), 9, 4);
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

  const auto baseline = Executor(g, {}).run(algos, schedule);
  EXPECT_TRUE(problem->verify(baseline).ok());

  for (const auto threads : kThreadCounts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    expect_identical(baseline, Executor(g, cfg).run(algos, schedule), threads);
  }
}

TEST(ParallelExecutor, SharedSchedulerEndToEnd) {
  Rng rng(5);
  const auto g = make_gnp_connected(120, 6.0 / 120, rng);
  SharedSchedulerConfig base_cfg;
  base_cfg.shared_seed = 42;
  auto p0 = make_mixed_workload(g, 8, 3, 9);
  const auto baseline = SharedRandomnessScheduler(base_cfg).run(*p0);

  for (const auto threads : kThreadCounts) {
    auto p = make_mixed_workload(g, 8, 3, 9);
    SharedSchedulerConfig cfg = base_cfg;
    cfg.num_threads = threads;
    const auto out = SharedRandomnessScheduler(cfg).run(*p);
    expect_identical(baseline.exec, out.exec, threads);
    EXPECT_EQ(baseline.schedule_rounds, out.schedule_rounds);
    EXPECT_TRUE(p->verify(out.exec).ok());
  }
}

TEST(ParallelExecutor, PrivateSchedulerEndToEnd) {
  Rng rng(3);
  const auto g = make_gnp_connected(100, 6.0 / 100, rng);
  PrivateSchedulerConfig base_cfg;
  base_cfg.seed = 21;
  base_cfg.central_precomputation = true;
  auto p0 = make_mixed_workload(g, 6, 3, 13);
  const auto baseline = PrivateRandomnessScheduler(base_cfg).run(*p0);

  for (const auto threads : kThreadCounts) {
    auto p = make_mixed_workload(g, 6, 3, 13);
    PrivateSchedulerConfig cfg = base_cfg;
    cfg.num_threads = threads;
    const auto out = PrivateRandomnessScheduler(cfg).run(*p);
    expect_identical(baseline.exec, out.exec, threads);
    EXPECT_EQ(baseline.schedule_rounds, out.schedule_rounds);
    EXPECT_TRUE(p->verify(out.exec).ok());
  }
}

TEST(ParallelExecutor, TelemetryCountersAreThreadCountInvariant) {
  Rng rng(17);
  const auto g = make_gnp_connected(130, 6.0 / 130, rng);
  auto problem = make_mixed_workload(g, 8, 4, 31);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  const auto delays = SharedRandomnessScheduler::draw_delays(31, algos.size(), 7, 4);
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

  MetricsRegistry serial_metrics;
  {
    ExecConfig cfg;
    cfg.telemetry = &serial_metrics;
    (void)Executor(g, cfg).run(algos, schedule);
  }
  for (const auto threads : kThreadCounts) {
    MetricsRegistry metrics;
    ExecConfig cfg;
    cfg.telemetry = &metrics;
    cfg.num_threads = threads;
    (void)Executor(g, cfg).run(algos, schedule);
    for (const auto* name : kInvariantCounters) {
      EXPECT_EQ(serial_metrics.counter(name), metrics.counter(name))
          << name << " at " << threads << " threads";
    }
    EXPECT_EQ(serial_metrics.gauge("executor.max_edge_load"),
              metrics.gauge("executor.max_edge_load"));
    // The split between serial and parallel rounds varies with the thread
    // count, but every big-round is accounted exactly once.
    EXPECT_EQ(metrics.counter("executor.parallel.rounds_serial") +
                  metrics.counter("executor.parallel.rounds_parallel"),
              metrics.counter("executor.big_rounds"));
  }
}

TEST(ParallelExecutor, CausalityViolationCountsAreThreadCountInvariant) {
  // An intentionally broken schedule must report the same violation count at
  // every thread count. Even nodes run round r at big-round r + 4 (delayed
  // senders) while odd nodes run lockstep at r - 1, so an odd node consumes
  // tag r at big-round r but its even neighbors only transmit it at r + 4.
  Rng rng(23);
  const auto g = make_gnp_connected(90, 6.0 / 90, rng);
  auto problem = make_broadcast_workload(g, 6, 4, 47);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  auto schedule = ScheduleTable(algos, g.num_nodes());
  for (std::size_t a = 0; a < algos.size(); ++a) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto slots = schedule.row_mut(a, v);
      for (std::uint32_t r = 1; r <= slots.size(); ++r) {
        slots[r - 1] = (v % 2 == 0) ? (r - 1 + 5) : (r - 1);
      }
    }
  }

  const auto baseline = Executor(g, {}).run(algos, schedule);
  EXPECT_GT(baseline.causality_violations, 0u)
      << "the schedule is constructed to violate causality";
  for (const auto threads : kThreadCounts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    const auto result = Executor(g, cfg).run(algos, schedule);
    expect_identical(baseline, result, threads);
  }
}

TEST(ParallelExecutor, StressLargeRandomGraph) {
  Rng rng(41);
  const auto g = make_gnp_connected(1200, 5.0 / 1200, rng);
  auto problem = make_mixed_workload(g, 12, 5, 97);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  const auto delays = SharedRandomnessScheduler::draw_delays(97, algos.size(), 6, 5);
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

  const auto baseline = Executor(g, {}).run(algos, schedule);
  EXPECT_TRUE(problem->verify(baseline).ok());
  for (const std::uint32_t threads : {2u, 4u}) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    const auto result = Executor(g, cfg).run(algos, schedule);
    expect_identical(baseline, result, threads);
  }
}

TEST(ParallelExecutor, ExecutorReusedAcrossRuns) {
  // The pool is created lazily and reused; back-to-back runs on one Executor
  // must stay deterministic.
  Rng rng(8);
  const auto g = make_gnp_connected(100, 6.0 / 100, rng);
  auto problem = make_bfs_workload(g, 6, 4, 3);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  const auto delays = SharedRandomnessScheduler::draw_delays(3, algos.size(), 5, 4);
  const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);

  ExecConfig cfg;
  cfg.num_threads = 4;
  Executor executor(g, cfg);
  const auto first = executor.run(algos, schedule);
  const auto second = executor.run(algos, schedule);
  expect_identical(first, second, 4);
}

}  // namespace
}  // namespace dasched
