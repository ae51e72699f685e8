// flood_large and flood_faulty: the engine alone, driven through
// Executor::run with k staggered 3-word floods (the E13/E15 flood shape).
//
// flood_large is E15's n = 10^5 rung with k cut so a serial pass takes a
// couple of seconds: its delivery buckets are far larger than the LLC, so
// the barrier is DRAM-bound and the tiled parallel barrier runs on big
// buckets. flood_faulty is E13.b's shape, scaled down, with seeded drops,
// duplicates and retries, which forces the serial barrier and the retry
// copy path. Neither attaches anything to ExecConfig, in traced mode too:
// any observer forces the serial barrier and would measure another engine.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "congest/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"

namespace perfbench {
namespace {

using namespace dasched;

/// Floods (self, vround, running-xor) to every neighbor each round and folds
/// the inbox into the running xor: allocation-free, so every cost measured
/// is the engine's.
class FloodProgram final : public NodeProgram {
 public:
  explicit FloodProgram(NodeId self) : self_(self) {}

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    const Payload p{std::uint64_t{self_}, std::uint64_t{ctx.vround()}, acc_};
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, p);
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  std::vector<std::uint64_t> output() const override { return {acc_}; }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      for (const auto w : m.payload) acc_ ^= w + 0x9e3779b97f4a7c15ull + m.from;
    }
  }

  NodeId self_;
  std::uint64_t acc_ = 0;
};

constexpr std::uint32_t kFloodWords = 3;

class FloodAlgorithm final : public DistributedAlgorithm {
 public:
  FloodAlgorithm(std::uint32_t rounds, std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), rounds_(rounds) {}

  std::string name() const override { return "flood"; }
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = kFloodWords;
    return f;
  }
  std::uint32_t rounds() const override { return rounds_; }
  std::unique_ptr<NodeProgram> make_program(NodeId node) const override {
    return std::make_unique<FloodProgram>(node);
  }

 private:
  std::uint32_t rounds_;
};

struct Shape {
  NodeId n;
  std::size_t k;
  std::uint32_t rounds;
  double degree;
  bool faulty;
};

// flood_large: E15's n = 10^5 rung (T = 4, G(n, 4/n)) with k cut from 100.
constexpr Shape kLarge{100'000, 14, 4, 4.0, false};
// flood_faulty: E13.b's shape (T = 10, G(n, 6/n)) cut from n = 3000, k = 32
// so one run takes ~0.1 s: a run yields hundreds of samples, and the fastest
// of them finds the host's quiet spells, which last about a second.
constexpr Shape kFaulty{1'000, 16, 10, 6.0, true};
constexpr double kDropRate = 0.05;
constexpr double kDuplicateRate = 0.01;
// Enough attempts that a 5% drop rate loses no message on any seed in
// practice: P(loss) per message is 0.05^8 ~ 4e-11.
constexpr std::uint32_t kMaxRetries = 7;

struct Instance {
  std::unique_ptr<Graph> graph;
  std::vector<std::unique_ptr<FloodAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;  // what runs: stretched for retries when faulty
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<Executor> threaded;
  std::unique_ptr<Executor> serial;
  ExecutionResult reference;  // reliable serial run the outputs must equal
  std::uint64_t reliable_big_rounds = 0;
  std::uint64_t events = 0;
};

/// Counts the (alg, node) pairs of `got` that did not complete or whose
/// output differs from `ref`, plus causality violations, over k * n pairs.
void check_outputs(const ExecutionResult& ref, const ExecutionResult& got,
                   const char* name, Report& out) {
  std::uint64_t bad = got.causality_violations;
  std::uint64_t pairs = 0;
  for (std::size_t a = 0; a < ref.outputs.size(); ++a) {
    for (std::size_t v = 0; v < ref.outputs[a].size(); ++v) {
      ++pairs;
      if (a >= got.completed.size() || v >= got.completed[a].size() ||
          got.completed[a][v] == 0 || got.outputs[a][v] != ref.outputs[a][v]) {
        ++bad;
      }
    }
  }
  out.attempted += pairs;
  out.failed += bad;
  out.check(name, bad == 0);
}

std::unique_ptr<Instance> setup(const Shape& s, const Options& opt, Recorder& rec,
                                Report& out) {
  auto inst = std::make_unique<Instance>();
  const std::uint64_t t0 = now_ns();
  out.sample("graph_gen_s", timed(rec, "graph", "gen", [&] {
               Rng rng(derive_seed(opt.seed, 1));
               inst->graph = std::make_unique<Graph>(
                   make_gnp_connected(s.n, s.degree / s.n, rng));
             }));
  const Graph& g = *inst->graph;
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < s.k; ++a) {
    inst->owned.push_back(
        std::make_unique<FloodAlgorithm>(s.rounds, derive_seed(opt.seed, 100 + a)));
    inst->algos.push_back(inst->owned.back().get());
    delays.push_back(static_cast<std::uint32_t>(a));
  }
  RetryPolicy retry;
  retry.max_retries = s.faulty ? kMaxRetries : 0;
  ScheduleTable reliable;
  out.sample("schedule_build_s", timed(rec, "congest", "schedule_build", [&] {
               reliable = ScheduleTable::from_delays(inst->algos, s.n, delays);
               inst->schedule = s.faulty ? stretch_for_retries(reliable, retry) : reliable;
             }));
  inst->events = scheduled_events(reliable);

  ExecConfig cfg;
  if (s.faulty) {
    FaultPlan plan;
    plan.seed = derive_seed(opt.seed, 2);
    plan.drop_rate = kDropRate;
    plan.duplicate_rate = kDuplicateRate;
    inst->faults = std::make_unique<FaultInjector>(g, plan);
    cfg.faults = inst->faults.get();
    cfg.retry = retry;
  }
  cfg.num_threads = opt.workers;
  inst->threaded = std::make_unique<Executor>(g, cfg);
  cfg.num_threads = 0;
  inst->serial = std::make_unique<Executor>(g, cfg);

  // Warm-up: the first run of each executor grows its arenas. The reliable
  // serial run is the reference every measured run is checked against.
  out.sample("warmup_s", timed(rec, "congest", "warmup", [&] {
               inst->reference = s.faulty ? Executor(g).run(inst->algos, reliable)
                                          : inst->serial->run(inst->algos, reliable);
               if (s.faulty) inst->serial->run(inst->algos, inst->schedule);
               inst->threaded->run(inst->algos, inst->schedule);
             }));
  inst->reliable_big_rounds = inst->reference.num_big_rounds;
  out.sample("setup_s", static_cast<double>(now_ns() - t0) * 1e-9);
  return inst;
}

void run_flood(const Shape& s, const Options& opt, Recorder& rec, Report& out) {
  std::unique_ptr<Instance> inst;
  std::uint64_t reference_fp = 0;
  int setups = 0;
  // Every set-up rebuilds the measured instance from the seed; its reference
  // run must reproduce the first one's.
  auto resetup = [&] {
    inst.reset();
    rec.id = static_cast<std::uint64_t>(setups);
    inst = setup(s, opt, rec, out);
    const std::uint64_t fp = result_fingerprint(inst->reference);
    if (setups == 0) reference_fp = fp;
    out.check("setup_identity", fp == reference_fp);
    check_outputs(inst->reference, inst->reference, "reference_complete", out);
    ++setups;
  };
  if (opt.trace) rec.open_window();
  const double rss_before = peak_rss_mib();
  resetup();
  out.values["working_set_mib"] = peak_rss_mib() - rss_before;
  if (opt.trace) rec.close_window();

  std::uint64_t hot_path_allocs = 0;
  std::uint64_t run_id = 0;
  // One iteration = one threaded and one serial run, each checked.
  auto measure = [&](double seconds, const std::string& prefix) {
    Budget budget(seconds, 2);
    while (!budget.done()) {
      if (setup_due(budget, setups)) resetup();
      rec.id = run_id++;
      ExecutionResult threaded;
      ExecutionResult serial;
      const double t = timed(rec, "congest", "run", [&] {
        threaded = inst->threaded->run(inst->algos, inst->schedule);
      });
      const double ts = timed(rec, "congest", "run_serial", [&] {
        serial = inst->serial->run(inst->algos, inst->schedule);
      });
      out.sample(prefix + "run_s", t);
      out.sample(prefix + "run_serial_s", ts);
      check_outputs(inst->reference, threaded, "threaded_outputs", out);
      check_outputs(inst->reference, serial, "serial_outputs", out);
      out.check("thread_identity", result_fingerprint(threaded) == result_fingerprint(serial));
      if (!s.faulty) out.check("reference_identity", result_fingerprint(serial) == reference_fp);
      hot_path_allocs = std::max({hot_path_allocs, threaded.hot_path_allocs,
                                  serial.hot_path_allocs});
      if (run_id == 1) {
        out.values["messages"] = static_cast<double>(threaded.total_messages);
        out.values["big_rounds"] = threaded.num_big_rounds;
        const auto& f = threaded.faults;
        out.values["fault_attempts"] = static_cast<double>(f.attempts);
        out.values["fault_delivered"] = static_cast<double>(f.delivered);
        out.values["fault_retransmissions"] = static_cast<double>(f.retransmissions);
        out.values["fault_lost"] = static_cast<double>(f.lost);
      }
      budget.tick();
    }
  };
  if (opt.trace) {
    // Untraced baseline for telemetry.overhead_frac, then the traced half.
    measure(opt.seconds / 2, "base_");
    rec.open_window();
    measure(opt.seconds / 2, "");
    rec.close_window();
  } else {
    measure(opt.seconds, "");
  }

  out.values["hot_path_allocs"] = static_cast<double>(hot_path_allocs);
  out.values["events"] = static_cast<double>(inst->events);
  out.values["width_words"] = kFloodWords;
  out.values["reliable_big_rounds"] = static_cast<double>(inst->reliable_big_rounds);
}

}  // namespace

void run_flood_large(const Options& opt, Recorder& rec, Report& out) {
  run_flood(kLarge, opt, rec, out);
}

void run_flood_faulty(const Options& opt, Recorder& rec, Report& out) {
  run_flood(kFaulty, opt, rec, out);
}

}  // namespace perfbench
