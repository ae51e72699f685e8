// E18 -- engineering: bytes moved per message across payload widths.
//
// The compact-lane delivery pipeline (congest/message.hpp + executor.cpp)
// sizes its staging and inbox arenas to the RUN width W -- the widest payload
// any scheduled algorithm declares -- instead of the compile-time worst case.
// This bench pins the bytes-per-message ledger and the throughput it buys,
// one row per payload-width family:
//
//   width 1  token floods / push gossip        (one word: the token)
//   width 2  aggregates / MIS priority rounds  ({value, priority})
//   width 3  telemetry floods                  ({self, vround, acc}, E13/E15)
//   width 4  randomized sharing frames         (header + 3 data words)
//   width 5  MST edge records                  ({w, u, v, component, tag})
//
// For each family the workload is k staggered floods that send exactly W
// words per message, with the width declared through StaticFootprint so the
// executor instantiates its W-word kernels. "B/msg" counts the bytes one
// message moves through the engine -- the staged SoA lanes (4B packed header
// + 8W payload + 8B routing word + 4B edge id) plus the delivered CSR arena
// record (4B header + 8W payload) -- against the fixed-layout engine this
// replaced (72B StagedMessage + 56B VMessage for every message, regardless
// of how few words it carried).
//
//   E18.a  the width ladder: bytes/message (compact vs fixed), serial
//          throughput, the steady-state allocation audit, and a serial-vs-
//          threaded bit-identity check per width. Consumed by the CI
//          perf-smoke job and tools/bench_trajectory.py from BENCH_e18.json.
//
// This binary links util/alloc_hooks.cpp, so the zero-alloc column is a
// measurement of the real allocator, as in E13.
#include "bench_common.hpp"

#include <chrono>

#include "congest/executor.hpp"
#include "graph/generators.hpp"
#include "util/alloc_counter.hpp"

namespace dasched {
namespace {

/// Floods exactly `width` words to every neighbor each round and folds the
/// inbox into a running xor; allocation-free in on_round.
class WidthProgram final : public NodeProgram {
 public:
  WidthProgram(NodeId self, std::uint32_t width) : self_(self), width_(width) {}

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    Payload p;
    for (std::uint32_t q = 0; q < width_; ++q) {
      p.push_back((std::uint64_t{self_} << 32) ^
                  (std::uint64_t{ctx.vround()} << 8) ^ q ^ acc_);
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
      for (const auto w : m.payload) acc_ ^= w + 0x9e3779b97f4a7c15ull + m.from;
    }
  }

  NodeId self_;
  std::uint32_t width_;
  std::uint64_t acc_ = 0;
};

class WidthAlgorithm final : public DistributedAlgorithm {
 public:
  WidthAlgorithm(std::uint32_t width, std::uint32_t rounds,
                 std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), width_(width), rounds_(rounds) {}

  std::string name() const override { return "width-flood"; }
  /// The declared width is the whole point: the executor derives the run
  /// width from it and runs W-word lanes instead of config-cap-wide ones.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = width_;
    return f;
  }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<WidthProgram>(node, width_);
  }

 private:
  std::uint32_t width_;
  std::uint32_t rounds_;
};

/// Representative algorithm family per payload width (see the file header).
const char* family_name(std::uint32_t width) {
  switch (width) {
    case 1: return "gossip/token";
    case 2: return "aggregate/MIS";
    case 3: return "flood telemetry";
    case 4: return "rand-sharing";
    default: return "MST edge record";
  }
}

/// Bytes one message moves through the compact engine: the staged SoA lanes
/// (packed header + W payload words + routing word + edge id) plus the
/// delivered arena record (arena_message_bytes).
std::size_t compact_bytes_per_message(std::uint32_t width) {
  const std::size_t staged = sizeof(std::uint32_t) +            // packed header
                             width * sizeof(std::uint64_t) +    // payload lane
                             sizeof(std::uint64_t) +            // routing word
                             sizeof(std::uint32_t);             // edge id
  return staged + arena_message_bytes(width);
}

/// The fixed-layout engine this replaced moved every message as a 72-byte
/// StagedMessage (routing header + VMessage) and delivered it as a 56-byte
/// VMessage, regardless of its payload length.
constexpr std::size_t kFixedBytesPerMessage = 72 + 56;

struct Workload {
  std::unique_ptr<Graph> graph;
  std::vector<std::unique_ptr<WidthAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
  std::uint64_t messages_per_run = 0;
};

Workload make_workload(std::uint32_t width, NodeId n, std::size_t k,
                       std::uint32_t rounds, std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.graph = std::make_unique<Graph>(make_gnp_connected(n, 6.0 / n, rng));
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < k; ++a) {
    w.owned.push_back(std::make_unique<WidthAlgorithm>(width, rounds, seed + a));
    w.algos.push_back(w.owned.back().get());
    delays.push_back(static_cast<std::uint32_t>(a));
  }
  w.schedule = ScheduleTable::from_delays(w.algos, n, delays);
  w.messages_per_run = std::uint64_t{k} * rounds * w.graph->num_directed_edges();
  return w;
}

constexpr int kRepeats = 3;

void run_width_ladder() {
  const NodeId n = 2000;
  const std::size_t k = 16;
  const std::uint32_t rounds = 8;

  Table table("E18.a -- bytes per message across payload widths "
              "(gnp n = 2000, k = 16, T = 8)");
  table.set_header({"width", "family", "messages", "B/msg", "fixed B/msg",
                    "saved %", "ms/run", "messages/s", "hot-path allocs",
                    "zero-alloc", "identical"});

  for (std::uint32_t width = 1; width <= kMaxPayloadWords; ++width) {
    Workload w = make_workload(width, n, k, rounds, 18000 + width);

    // Serial: one warm-up, then best-of-kRepeats with the steady-state
    // allocation audit on the timed runs.
    Executor serial(*w.graph, {});
    ExecutionResult serial_result = serial.run(w.algos, w.schedule);  // warm-up
    double best_ms = 0.0;
    std::uint64_t hot_allocs = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      serial_result = serial.run(w.algos, w.schedule);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      hot_allocs += serial_result.hot_path_allocs;
    }

    // Threaded identity: the same workload at 2 workers must be bit-identical.
    ExecConfig threaded_cfg;
    threaded_cfg.num_threads = 2;
    Executor threaded(*w.graph, threaded_cfg);
    const auto threaded_result = threaded.run(w.algos, w.schedule);
    const bool same =
        result_fingerprint(serial_result) == result_fingerprint(threaded_result);

    const std::size_t compact = compact_bytes_per_message(width);
    const double saved =
        100.0 * (1.0 - static_cast<double>(compact) / kFixedBytesPerMessage);
    table.add_row({Table::fmt(std::uint64_t{width}), family_name(width),
                   Table::fmt(serial_result.total_messages),
                   Table::fmt(std::uint64_t{compact}),
                   Table::fmt(std::uint64_t{kFixedBytesPerMessage}),
                   Table::fmt(saved, 1), Table::fmt(best_ms, 2),
                   Table::fmt(w.messages_per_run / (best_ms / 1000.0), 0),
                   Table::fmt(hot_allocs), hot_allocs == 0 ? "yes" : "NO",
                   same ? "yes" : "NO"});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner(
      "E18 (engineering)",
      "compact message lanes: bytes/message and throughput per payload width");
  std::cout << "allocator instrumented: "
            << (alloc_counting_linked() ? "yes" : "NO (counters read 0)")
            << "\n\n";
  run_width_ladder();
}

void bm_width(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  Workload w = make_workload(width, 1000, 8, 8, 18100 + width);
  Executor executor(*w.graph, {});
  for (auto _ : state) {
    const auto result = executor.run(w.algos, w.schedule);
    benchmark::DoNotOptimize(result.total_messages);
  }
  state.counters["messages/s"] = benchmark::Counter(
      static_cast<double>(w.messages_per_run),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_width)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

DASCHED_BENCH_MAIN(dasched::print_tables)
