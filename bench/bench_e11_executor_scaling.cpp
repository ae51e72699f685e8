// E11 -- engineering: parallel big-round execution scaling.
//
// Not a paper claim but a harness property the larger experiments lean on:
// the executor shards each big-round's event bucket across a worker pool with
// results bit-identical to the serial path (docs/PERFORMANCE.md). This bench
// measures executor throughput against the thread count on the E1 workload
// mix and re-asserts the determinism contract on every measured run -- the
// "identical" column is a hard check, not a spot sample.
//
// Table columns: threads, wall time per run (best of kRepeats), events/sec,
// speedup vs the serial row, identical (outputs + loads + violation counts
// match serial). Speedup depends on hardware concurrency; on a single-core
// host all rows are expected to be ~1x.
#include "bench_common.hpp"
#include "flood_workload.hpp"

#include <chrono>

#include "congest/executor.hpp"
#include "graph/generators.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"

namespace dasched {
namespace {

struct Workload {
  // The graph lives on the heap: the problem (and its algorithms) keep a
  // pointer to it, so its address must survive the struct being moved.
  std::unique_ptr<Graph> graph;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  std::unique_ptr<ScheduleTable> schedule;
  std::uint64_t events = 0;
};

Workload make_workload(NodeId n, std::size_t k, std::uint32_t radius,
                       std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.graph = std::make_unique<Graph>(make_gnp_connected(n, 6.0 / n, rng));
  w.problem = make_mixed_workload(*w.graph, k, radius, seed);
  w.problem->run_solo();
  w.algos = w.problem->algorithm_ptrs();
  const std::uint32_t independence =
      std::max<std::uint32_t>(2, static_cast<std::uint32_t>(bench::log2n(n)));
  const std::uint32_t range = std::max<std::uint32_t>(
      1, w.problem->congestion() /
             std::max<std::uint32_t>(1, static_cast<std::uint32_t>(bench::log2n(n))));
  const auto delays =
      SharedRandomnessScheduler::draw_delays(seed, w.algos.size(), range, independence);
  w.schedule = std::make_unique<ScheduleTable>(
      ScheduleTable::from_delays(w.algos, n, delays));
  for (std::size_t a = 0; a < w.algos.size(); ++a) {
    w.events += std::uint64_t{n} * w.algos[a]->rounds();
  }
  return w;
}

constexpr int kRepeats = 3;

void run_scaling_table(const char* title, NodeId n, std::size_t k,
                       std::uint32_t radius, std::uint64_t seed) {
  Workload w = make_workload(n, k, radius, seed);

  Table table(title);
  table.set_header(
      {"threads", "ms/run", "events/s", "speedup", "identical"});

  std::vector<std::uint32_t> thread_counts = {1, 2, 4};
  const std::uint32_t hw = ThreadPool::hardware_workers();
  if (hw > 4) thread_counts.push_back(hw);

  double serial_ms = 0.0;
  ExecutionResult serial_result;
  for (const auto threads : thread_counts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    Executor executor(*w.graph, cfg);
    double best_ms = 0.0;
    ExecutionResult result;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      result = executor.run(w.algos, *w.schedule);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) {
      serial_ms = best_ms;
      serial_result = result;
    }
    const bool same = bench::identical(serial_result, result);
    table.add_row({Table::fmt(std::uint64_t{threads}), Table::fmt(best_ms, 2),
                   Table::fmt(w.events / (best_ms / 1000.0), 0),
                   Table::fmt(serial_ms / best_ms, 2), same ? "yes" : "NO"});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner(
      "E11 (engineering)",
      "parallel big-round execution: throughput vs threads, bit-identical results");
  std::cout << "hardware workers: " << ThreadPool::hardware_workers() << "\n\n";

  run_scaling_table("E11.a -- medium (gnp n = 800, k = 24, radius 4)", 800, 24, 4,
                    11001);
  run_scaling_table("E11.b -- large (gnp n = 3000, k = 32, radius 5)", 3000, 32, 5,
                    11002);
}

void bm_executor(benchmark::State& state) {
  static Workload w = make_workload(800, 24, 4, 11001);
  ExecConfig cfg;
  cfg.num_threads = static_cast<std::uint32_t>(state.range(0));
  Executor executor(*w.graph, cfg);
  for (auto _ : state) {
    const auto result = executor.run(w.algos, *w.schedule);
    benchmark::DoNotOptimize(result.total_messages);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(w.events), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_executor)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
