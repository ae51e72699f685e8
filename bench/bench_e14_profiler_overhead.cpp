// E14 -- engineering: the congestion profiler observes without perturbing.
//
// The execution observatory (telemetry/profiler.hpp, telemetry/
// flight_recorder.hpp) is only trustworthy if attaching it does not change
// what it measures. This binary pins the three engineering claims the
// observability docs make:
//   E14.a  identity: running the same schedule with ExecConfig::profiler null
//          and non-null produces bit-identical ExecutionResults, and the
//          profiler's own totals agree with the engine's (messages, rounds,
//          max edge load). "identical"/"agrees" are hard columns the CI
//          perf-smoke job checks in BENCH_e14.json.
//   E14.b  overhead: message throughput with the profiler on stays within 10%
//          of the unprofiled engine (same workload as E13.b). The verdict is
//          the median overhead of 11 off/on pairs, alternating which side
//          runs first, shown with its quartile band; ms/run and messages/s
//          are each side's median. The measured overhead also feeds
//          tools/bench_trajectory.py.
//   E14.c  allocation: with profiler AND flight recorder attached, the
//          big-round loop still reports zero hot-path allocations from the
//          second run onward -- the observatory obeys the same arena
//          discipline as the engine it watches (E13.a's audit, instruments
//          on).
//
// Links util/alloc_hooks.cpp so the E14.c audit measures the real allocator.
#include "bench_common.hpp"
#include "flood_workload.hpp"

#include <chrono>
#include <string>

#include "congest/executor.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/alloc_counter.hpp"
#include "util/stats.hpp"

namespace dasched {
namespace {

void run_identity_table(const char* title, NodeId n, std::size_t k,
                        std::uint32_t rounds, std::uint64_t seed) {
  bench::FloodWorkload w = bench::make_flood_workload(n, k, rounds, 6.0, seed);

  Executor plain(*w.graph, {});
  const auto base = plain.run(w.algos, w.schedule);

  ExecProfiler profiler;
  ExecConfig pcfg;
  pcfg.profiler = &profiler;
  Executor profiled(*w.graph, pcfg);
  const auto measured = profiled.run(w.algos, w.schedule);

  const bool agrees = profiler.total_messages() == measured.total_messages &&
                      profiler.rounds_used() == measured.num_big_rounds &&
                      profiler.max_edge_load() == measured.max_edge_load;

  Table table(title);
  table.set_header({"engine", "messages", "big-rounds", "max load", "identical",
                    "profiler agrees"});
  table.add_row({"profiler off", Table::fmt(base.total_messages),
                 Table::fmt(std::uint64_t{base.num_big_rounds}),
                 Table::fmt(std::uint64_t{base.max_edge_load}), "baseline", "-"});
  table.add_row({"profiler on", Table::fmt(measured.total_messages),
                 Table::fmt(std::uint64_t{measured.num_big_rounds}),
                 Table::fmt(std::uint64_t{measured.max_edge_load}),
                 bench::identical(base, measured) ? "yes" : "NO", agrees ? "yes" : "NO"});
  bench::emit(table);
}

// Off/on pairs, alternating which side runs first. One pair's ratio swings
// with whatever else the host runs at that moment, so the verdict reads the
// median per-pair overhead over kPairs pairs and the table shows its
// quartile band.
constexpr int kPairs = 11;

double run_ms(Executor& executor, const bench::FloodWorkload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = executor.run(w.algos, w.schedule);
  benchmark::DoNotOptimize(result.total_messages);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void run_overhead_table(const char* title, NodeId n, std::size_t k,
                        std::uint32_t rounds, std::uint64_t seed) {
  bench::FloodWorkload w = bench::make_flood_workload(n, k, rounds, 6.0, seed);

  Executor plain(*w.graph, {});
  ExecProfiler profiler;
  ExecConfig pcfg;
  pcfg.profiler = &profiler;
  Executor profiled(*w.graph, pcfg);
  // Warm both engines' arenas before anything is timed.
  (void)run_ms(plain, w);
  (void)run_ms(profiled, w);

  SampleSet off_ms, on_ms, overhead;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = 0.0, on = 0.0;
    if (pair % 2 == 0) {
      off = run_ms(plain, w);
      on = run_ms(profiled, w);
    } else {
      on = run_ms(profiled, w);
      off = run_ms(plain, w);
    }
    off_ms.add(off);
    on_ms.add(on);
    overhead.add((on - off) / off * 100.0);
  }
  const double median = overhead.quantile(0.5);
  const std::string band =
      Table::fmt(overhead.quantile(0.25), 1) + ".." + Table::fmt(overhead.quantile(0.75), 1);

  Table table(title);
  table.set_header({"engine", "ms/run", "messages/s", "overhead %", "overhead q1..q3 %",
                    "within 10%"});
  const auto row = [&](const char* engine, const SampleSet& ms, std::string pct,
                       std::string iqr, const char* verdict) {
    const double median_ms = ms.quantile(0.5);
    table.add_row({engine, Table::fmt(median_ms, 2),
                   Table::fmt(w.messages_per_run / (median_ms / 1000.0), 0), std::move(pct),
                   std::move(iqr), verdict});
  };
  row("profiler off", off_ms, "0.0", "-", "baseline");
  row("profiler on", on_ms, Table::fmt(median, 1), band, median <= 10.0 ? "yes" : "NO");
  bench::emit(table);
}

void run_alloc_audit(const char* title, NodeId n, std::size_t k,
                     std::uint32_t rounds, std::uint64_t seed) {
  bench::FloodWorkload w = bench::make_flood_workload(n, k, rounds, 6.0, seed);

  ExecProfiler profiler;
  FlightRecorder recorder(FlightRecorderConfig{});  // in-memory rings; no dump path
  ExecConfig cfg;
  cfg.profiler = &profiler;
  cfg.recorder = &recorder;
  Executor executor(*w.graph, cfg);

  Table table(title);
  table.set_header({"run", "messages", "cells", "allocs/run", "hot-path allocs",
                    "zero-alloc"});
  for (int run = 1; run <= 3; ++run) {
    const std::uint64_t before = alloc_count();
    const auto result = executor.run(w.algos, w.schedule);
    const std::uint64_t per_run = alloc_count() - before;
    // Run 1 warms both the engine's arenas and the profiler's cell list to
    // their high-water marks; later runs must stay off the allocator with the
    // full observatory attached.
    const char* verdict = run == 1 ? "warm-up"
                          : result.hot_path_allocs == 0 ? "yes"
                                                        : "NO";
    table.add_row({Table::fmt(std::uint64_t(run)), Table::fmt(result.total_messages),
                   Table::fmt(std::uint64_t{profiler.cells().size()}),
                   Table::fmt(per_run), Table::fmt(result.hot_path_allocs), verdict});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner(
      "E14 (engineering)",
      "congestion profiler: bit-identical results, <= 10% overhead, zero allocs");
  std::cout << "allocator instrumented: "
            << (alloc_counting_linked() ? "yes" : "NO (counters read 0)") << "\n\n";

  run_identity_table(
      "E14.a -- profiled vs unprofiled identity (gnp n = 600, k = 8, T = 12)", 600,
      8, 12, 13001);
  run_overhead_table(
      "E14.b -- profiler overhead (gnp n = 3000, k = 32, T = 10)", 3000, 32, 10,
      13002);
  run_alloc_audit(
      "E14.c -- steady-state allocation audit, profiler + recorder on "
      "(gnp n = 600, k = 8, T = 12)",
      600, 8, 12, 13001);
}

void bm_profiler(benchmark::State& state) {
  static bench::FloodWorkload w = bench::make_flood_workload(1000, 16, 10, 6.0, 13003);
  static ExecProfiler profiler;
  const bool on = state.range(0) != 0;
  ExecConfig cfg;
  if (on) cfg.profiler = &profiler;
  Executor executor(*w.graph, cfg);
  for (auto _ : state) {
    const auto result = executor.run(w.algos, w.schedule);
    benchmark::DoNotOptimize(result.total_messages);
  }
  state.SetLabel(on ? "profiler on" : "profiler off");
  state.counters["messages/s"] = benchmark::Counter(
      static_cast<double>(w.messages_per_run),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_profiler)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
