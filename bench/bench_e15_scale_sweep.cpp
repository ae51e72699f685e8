// E15 -- engineering: million-node scale sweep of the delivery engine.
//
// Not a paper claim but the capacity statement behind the experiment suite:
// the executor's owner-partitioned delivery barrier (congest/executor.cpp,
// docs/PERFORMANCE.md) holds its zero-allocation, bit-identical contract as
// the instance grows from n = 10^3 to n = 10^6 nodes with k = 100 staggered
// algorithms -- the regime the ROADMAP's scheduling experiments need.
//
//   E15.a  the scale ladder: for each rung (n, k, T) report the instance
//          geometry (directed edges, big-rounds, delivered messages), serial
//          throughput, threaded throughput at 2 and 4 workers, the
//          bit-identity verdict across all of them, and the process peak RSS after the rung. The RSS
//          column is the "memory budget" record: a process-wide high-water
//          mark, monotone down the ladder, so the last rung's value bounds
//          the whole sweep.
//
// The identity verdict is load-bearing: main() exits non-zero if any rung's
// threaded results diverge from serial, and CI runs the reduced ladder
// (--max-n 100000) as a Release smoke test with exactly that contract.
//
// Speedup numbers are recorded honestly for whatever machine runs the bench;
// on single-core CI runners, threaded rows cost more than serial ones and
// the column documents that rather than hiding it.
//
// Flags (beyond bench_common's --report/--trace/--threads/--profile):
//   --max-n N   drop ladder rungs with more than N nodes (CI's reduced
//               ladder; the default keeps all rungs up to n = 10^6).
#include "bench_common.hpp"
#include "flood_workload.hpp"

#include <chrono>

#include "congest/executor.hpp"

namespace dasched {
namespace {

/// One ladder rung. Rounds shrink as n grows so every rung's total message
/// volume stays runnable while the top rung still carries k = 100 algorithms
/// across a million nodes.
struct Rung {
  NodeId n;
  std::size_t k;
  std::uint32_t rounds;
  double deg;
};

constexpr Rung kLadder[] = {
    {1'000, 100, 8, 6.0},
    {10'000, 100, 6, 6.0},
    {100'000, 100, 4, 4.0},
    {1'000'000, 100, 2, 4.0},
};

// Largest n the sweep may run (reduced by --max-n for CI's smoke ladder).
NodeId g_max_n = 1'000'000;
// Sticky identity verdict consumed by main(): any rung where a threaded run
// diverges from serial flips this and the process exits non-zero.
bool g_identity_ok = true;

void run_scale_ladder() {
  Table table("E15.a -- scale ladder (staggered flood, k = 100)");
  table.set_header({"n", "dir edges", "T", "big-rounds", "messages",
                    "serial ms", "messages/s", "x2 speedup", "x4 speedup",
                    "identical", "peak RSS MiB"});

  for (const auto& rung : kLadder) {
    if (rung.n > g_max_n) continue;
    bench::FloodWorkload w = bench::make_flood_workload(rung.n, rung.k, rung.rounds, rung.deg,
                               15000 + rung.n);
    // Big rungs are single-pass; small ones take best-of to steady the clock.
    const int repeats = rung.n >= 100'000 ? 1 : 3;

    double serial_ms = 0.0;
    double speedup[2] = {0.0, 0.0};
    ExecutionResult serial_result;
    bool rung_identical = true;
    const std::uint32_t thread_counts[] = {0, 2, 4};
    for (std::size_t ti = 0; ti < 3; ++ti) {
      ExecConfig cfg;
      cfg.num_threads = thread_counts[ti];
      Executor executor(*w.graph, cfg);
      double best_ms = 0.0;
      ExecutionResult result;
      for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        result = executor.run(w.algos, w.schedule);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      if (ti == 0) {
        serial_ms = best_ms;
        serial_result = std::move(result);
      } else {
        speedup[ti - 1] = serial_ms / best_ms;
        rung_identical = rung_identical && bench::identical(serial_result, result);
      }
    }
    g_identity_ok = g_identity_ok && rung_identical;

    table.add_row({Table::fmt(std::uint64_t{rung.n}),
                   Table::fmt(std::uint64_t{w.graph->num_directed_edges()}),
                   Table::fmt(std::uint64_t{rung.rounds}),
                   Table::fmt(std::uint64_t{serial_result.num_big_rounds}),
                   Table::fmt(serial_result.total_messages),
                   Table::fmt(serial_ms, 2),
                   Table::fmt(serial_result.total_messages / (serial_ms / 1000.0), 0),
                   Table::fmt(speedup[0], 2), Table::fmt(speedup[1], 2),
                   rung_identical ? "yes" : "NO", Table::fmt(bench::peak_rss_mib(), 1)});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner(
      "E15 (engineering)",
      "million-node scale sweep: owner-partitioned parallel delivery barrier");
  std::cout << "ladder cap: n <= " << g_max_n << "\n\n";
  run_scale_ladder();
  if (!g_identity_ok) {
    std::cout << "IDENTITY FAILURE: threaded results diverged from serial\n";
  }
}

void bm_scale_mid(benchmark::State& state) {
  static bench::FloodWorkload w = bench::make_flood_workload(10'000, 100, 6, 6.0, 15999);
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
BENCHMARK(bm_scale_mid)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

// Hand-rolled DASCHED_BENCH_MAIN so --max-n can trim the ladder for CI, and
// so the identity verdict gates the exit code.
int main(int argc, char** argv) {
  if (!::dasched::bench::consume_report_flags(&argc, argv)) return 2;
  int write = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-n") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-n requires a node count argument\n");
        return 2;
      }
      std::uint64_t cap = 0;
      if (!::dasched::parse_flag_u64(argv[++i], &cap) || cap == 0) {
        std::fprintf(stderr, "--max-n: invalid node count '%s'\n", argv[i]);
        return 2;
      }
      ::dasched::g_max_n = static_cast<::dasched::NodeId>(
          std::min<std::uint64_t>(cap, 1'000'000));
    } else {
      argv[write++] = argv[i];
    }
  }
  argc = write;
  ::dasched::print_tables();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const int rc = ::dasched::bench::flush_reports(argv[0]);
  if (rc != 0) return rc;
  return ::dasched::g_identity_ok ? 0 : 3;
}
