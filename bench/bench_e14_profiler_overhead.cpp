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
//          of the unprofiled engine (best-of-N, same workload as E13.b). The
//          measured overhead also feeds tools/bench_trajectory.py.
//   E14.c  allocation: with profiler AND flight recorder attached, the
//          big-round loop still reports zero hot-path allocations from the
//          second run onward -- the observatory obeys the same arena
//          discipline as the engine it watches (E13.a's audit, instruments
//          on).
//
// Links util/alloc_hooks.cpp so the E14.c audit measures the real allocator.
#include "bench_common.hpp"

#include <chrono>

#include "congest/executor.hpp"
#include "graph/generators.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/alloc_counter.hpp"

namespace dasched {
namespace {

/// Same flood workload as E13: every scheduled event sends deg(v) inline
/// messages and folds its inbox into a scalar, so on_round itself never
/// allocates and run times are dominated by the engine.
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
  /// The flood payload is exactly {self, vround, acc}: three words. The
  /// declared width lets the executor run 3-word compact lanes instead of
  /// config-cap-wide ones.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 3;
    return f;
  }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<FloodProgram>(node);
  }

 private:
  std::uint32_t rounds_;
};

struct Workload {
  std::unique_ptr<Graph> graph;
  std::vector<std::unique_ptr<FloodAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
  std::uint64_t messages_per_run = 0;
};

Workload make_workload(NodeId n, std::size_t k, std::uint32_t rounds,
                       std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.graph = std::make_unique<Graph>(make_gnp_connected(n, 6.0 / n, rng));
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < k; ++a) {
    w.owned.push_back(std::make_unique<FloodAlgorithm>(rounds, seed + a));
    w.algos.push_back(w.owned.back().get());
    delays.push_back(static_cast<std::uint32_t>(a));
  }
  w.schedule = ScheduleTable::from_delays(w.algos, n, delays);
  w.messages_per_run = std::uint64_t{k} * rounds * w.graph->num_directed_edges();
  return w;
}

bool identical(const ExecutionResult& a, const ExecutionResult& b) {
  return a.outputs == b.outputs && a.completed == b.completed &&
         a.causality_violations == b.causality_violations &&
         a.total_messages == b.total_messages &&
         a.num_big_rounds == b.num_big_rounds &&
         a.max_load_per_big_round == b.max_load_per_big_round &&
         a.max_edge_load == b.max_edge_load;
}

void run_identity_table(const char* title, NodeId n, std::size_t k,
                        std::uint32_t rounds, std::uint64_t seed) {
  Workload w = make_workload(n, k, rounds, seed);

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
                 identical(base, measured) ? "yes" : "NO", agrees ? "yes" : "NO"});
  bench::emit(table);
}

// Best-of-5: the off/on comparison divides two wall-clock samples, so one
// noisy scheduler quantum on either side shows up directly in the overhead
// percentage. Five repeats keeps the minimum stable on shared machines.
constexpr int kRepeats = 5;

double best_run_ms(Executor& executor, const Workload& w) {
  double best = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = executor.run(w.algos, w.schedule);
    benchmark::DoNotOptimize(result.total_messages);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

void run_overhead_table(const char* title, NodeId n, std::size_t k,
                        std::uint32_t rounds, std::uint64_t seed) {
  Workload w = make_workload(n, k, rounds, seed);

  Executor plain(*w.graph, {});
  const double off_ms = best_run_ms(plain, w);

  ExecProfiler profiler;
  ExecConfig pcfg;
  pcfg.profiler = &profiler;
  Executor profiled(*w.graph, pcfg);
  const double on_ms = best_run_ms(profiled, w);

  const double overhead = off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;

  Table table(title);
  table.set_header({"engine", "ms/run", "messages/s", "overhead %", "within 10%"});
  table.add_row({"profiler off", Table::fmt(off_ms, 2),
                 Table::fmt(w.messages_per_run / (off_ms / 1000.0), 0), "0.0",
                 "baseline"});
  table.add_row({"profiler on", Table::fmt(on_ms, 2),
                 Table::fmt(w.messages_per_run / (on_ms / 1000.0), 0),
                 Table::fmt(overhead, 1), overhead <= 10.0 ? "yes" : "NO"});
  bench::emit(table);
}

void run_alloc_audit(const char* title, NodeId n, std::size_t k,
                     std::uint32_t rounds, std::uint64_t seed) {
  Workload w = make_workload(n, k, rounds, seed);

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
  static Workload w = make_workload(1000, 16, 10, 13003);
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
