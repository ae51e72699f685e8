// E13 -- engineering: the zero-allocation message hot path.
//
// Not a paper claim but the engineering property the experiment suite's run
// times rest on: once the executor's arenas are warm, driving a big-round
// schedule performs zero heap allocations per message -- payloads are stored
// inline (congest/message.hpp), staged/delivered messages are trivially
// copyable, and inboxes are contiguous slices of a per-big-round CSR arena
// (docs/PERFORMANCE.md, "Memory layout & allocation budget").
//
// This binary links util/alloc_hooks.cpp, so the global allocator is
// instrumented and the audit below is a *measurement*, not an estimate:
//   E13.a  repeated runs of one Executor on a message-heavy flood workload,
//          reporting the allocator's per-run call count and the engine's own
//          ExecutionResult::hot_path_allocs (allocations inside the big-round
//          loop). From the second run onward the hot path must report ZERO --
//          the "zero-alloc" column is a hard check consumed by the CI
//          perf-smoke job from BENCH_e13.json.
//   E13.b  message throughput (messages/sec) of the same engine, serial and
//          threaded, with the bit-identity re-check of E11.
//
// The flood program is deliberately allocation-free in on_round: every
// allocation the audit observes is attributable to the engine, not the
// workload.
#include "bench_common.hpp"
#include "flood_workload.hpp"

#include <chrono>

#include "congest/executor.hpp"
#include "util/alloc_counter.hpp"

namespace dasched {
namespace {

void run_alloc_audit(const char* title, NodeId n, std::size_t k,
                     std::uint32_t rounds, std::uint64_t seed) {
  bench::FloodWorkload w = bench::make_flood_workload(n, k, rounds, 6.0, seed);
  Executor executor(*w.graph, {});

  Table table(title);
  table.set_header({"run", "messages", "allocs/run", "hot-path allocs", "zero-alloc"});
  for (int run = 1; run <= 3; ++run) {
    const std::uint64_t before = alloc_count();
    const auto result = executor.run(w.algos, w.schedule);
    const std::uint64_t per_run = alloc_count() - before;
    // Run 1 warms the arenas to their high-water marks; every later run must
    // keep the big-round loop off the allocator entirely.
    const char* verdict = run == 1 ? "warm-up"
                          : result.hot_path_allocs == 0 ? "yes"
                                                        : "NO";
    table.add_row({Table::fmt(std::uint64_t(run)), Table::fmt(result.total_messages),
                   Table::fmt(per_run), Table::fmt(result.hot_path_allocs), verdict});
  }
  bench::emit(table);
}

constexpr int kRepeats = 3;

void run_throughput_table(const char* title, NodeId n, std::size_t k,
                          std::uint32_t rounds, std::uint64_t seed) {
  bench::FloodWorkload w = bench::make_flood_workload(n, k, rounds, 6.0, seed);

  Table table(title);
  table.set_header({"threads", "ms/run", "messages/s", "speedup", "identical"});

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
      result = executor.run(w.algos, w.schedule);
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
                   Table::fmt(w.messages_per_run / (best_ms / 1000.0), 0),
                   Table::fmt(serial_ms / best_ms, 2), same ? "yes" : "NO"});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner(
      "E13 (engineering)",
      "zero-allocation message hot path: inline payloads + CSR inbox arenas");
  std::cout << "allocator instrumented: "
            << (alloc_counting_linked() ? "yes" : "NO (counters read 0)") << "\n\n";

  run_alloc_audit("E13.a -- steady-state allocation audit (gnp n = 600, k = 8, T = 12)",
                  600, 8, 12, 13001);
  run_throughput_table(
      "E13.b -- message throughput (gnp n = 3000, k = 32, T = 10)", 3000, 32, 10,
      13002);
}

void bm_hotpath(benchmark::State& state) {
  static bench::FloodWorkload w = bench::make_flood_workload(1000, 16, 10, 6.0, 13003);
  ExecConfig cfg;
  cfg.num_threads = static_cast<std::uint32_t>(state.range(0));
  Executor executor(*w.graph, cfg);
  for (auto _ : state) {
    const auto result = executor.run(w.algos, w.schedule);
    benchmark::DoNotOptimize(result.total_messages);
  }
  state.counters["messages/s"] = benchmark::Counter(
      static_cast<double>(w.messages_per_run),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_hotpath)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
