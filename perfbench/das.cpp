// das_batch: the paper's pipeline in both units of cost. A fixed batch of
// independent mixed DAS problems (broadcast, BFS, aggregate) is solo-profiled,
// scheduled by Thm 1.1 (shared randomness) and by Thm 4.1 (private
// randomness, with its distributed clustering and sharing simulations), and
// both schedules are verified. Time goes to thousands of tiny lockstep
// rounds, so fixed per-run and per-round costs dominate -- the opposite of
// flood_large. The schedulers run their executors serially, as by default.
//
// After each problem the two verified schedule tables are executed again
// straight through Executor::run, threaded and serially, and must reproduce
// the schedulers' own results bit for bit: the engine on sparse schedules.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "congest/executor.hpp"
#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "verify/schedule_verifier.hpp"

namespace perfbench {
namespace {

using namespace dasched;

// One batch: kBatch problems, each on its own G(n, 6/n). The distributed
// clustering and sharing simulations cost ~0.15 s per problem at n = 128,
// ~1 s at n = 300 and ~16 s at n = 2000, so n stays small enough for every
// problem to be processed many times in a run: run.py takes each problem's
// fastest pass, which finds the host's quiet spells.
constexpr NodeId kNodes = 128;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kAlgorithms = 24;
constexpr std::uint32_t kRadius = 3;
constexpr double kDegree = 6.0;
// Timed re-executions of each problem's two verified tables.
constexpr int kReexecSamples = 4;

struct Batch {
  std::vector<std::unique_ptr<Graph>> graphs;
  std::vector<std::uint64_t> seeds;
};

std::unique_ptr<ScheduleProblem> make_problem(const Batch& b, std::size_t i) {
  return make_mixed_workload(*b.graphs[i], kAlgorithms, kRadius, b.seeds[i]);
}

Batch setup(const Options& opt, Recorder& rec, Report& out) {
  Batch b;
  const std::uint64_t t0 = now_ns();
  out.sample("graph_gen_s", timed(rec, "graph", "gen", [&] {
               for (std::size_t i = 0; i < kBatch; ++i) {
                 Rng rng(derive_seed(opt.seed, 10 + i));
                 b.graphs.push_back(std::make_unique<Graph>(
                     make_gnp_connected(kNodes, kDegree / kNodes, rng)));
                 b.seeds.push_back(derive_seed(opt.seed, 20 + i));
               }
             }));
  // Warm-up: both schedulers once on the first problem, which touches every
  // allocator path the pipeline uses.
  out.sample("warmup_s", timed(rec, "sched", "warmup", [&] {
               auto problem = make_problem(b, 0);
               SharedSchedulerConfig scfg;
               scfg.shared_seed = b.seeds[0];
               SharedRandomnessScheduler(scfg).run(*problem);
               PrivateSchedulerConfig pcfg;
               pcfg.seed = b.seeds[0];
               PrivateRandomnessScheduler(pcfg).run(*problem);
             }));
  out.sample("setup_s", static_cast<double>(now_ns() - t0) * 1e-9);
  return b;
}

struct Totals {
  double congestion = 0, dilation = 0, precompute_rounds = 0;
  double rounds_shared = 0, rounds_private = 0;
  double min_coverage = 1e18, uncovered_nodes = 0;
  double exec_big_rounds = 0, exec_messages = 0, exec_events = 0;
};

}  // namespace

void run_das_batch(const Options& opt, Recorder& rec, Report& out) {
  Batch batch;
  int setups = 0;
  auto resetup = [&] {
    rec.id = static_cast<std::uint64_t>(setups);
    batch = setup(opt, rec, out);
    ++setups;
  };
  if (opt.trace) rec.open_window();
  resetup();
  if (opt.trace) rec.close_window();

  Totals first_pass;
  std::uint64_t processed = 0;
  std::uint64_t traced_problems = 0;
  double verify_errors = 0;

  auto process = [&](std::size_t i, const std::string& prefix, bool traced) {
    TelemetrySink* sink = traced ? &rec : nullptr;
    rec.id = processed;
    auto problem = make_problem(batch, i);
    const Graph& g = *batch.graphs[i];
    SharedSchedulerConfig scfg;
    scfg.shared_seed = batch.seeds[i];
    scfg.telemetry = sink;
    PrivateSchedulerConfig pcfg;
    pcfg.seed = batch.seeds[i];
    pcfg.telemetry = sink;

    SharedScheduleOutcome shared;
    PrivateScheduleOutcome priv;
    verify::Report shared_report;
    verify::Report private_report;
    ScheduleProblem::Verification shared_ok;
    ScheduleProblem::Verification private_ok;
    const double solo_s = timed(rec, "sched", "solo", [&] { problem->run_solo(); });
    const double shared_s = timed(rec, "sched", "shared",
                                  [&] { shared = SharedRandomnessScheduler(scfg).run(*problem); });
    const double private_s = timed(rec, "sched", "private",
                                   [&] { priv = PrivateRandomnessScheduler(pcfg).run(*problem); });
    const double check_s = timed(rec, "verify", "check", [&] {
      verify::VerifyOptions vs;
      vs.phase_len = shared.phase_len;
      vs.telemetry = sink;
      shared_report = verify::check_schedule(*problem, shared.schedule, vs);
      verify::VerifyOptions vp;
      vp.phase_len = priv.phase_len;
      vp.delay_support = priv.delay_support;
      vp.check_delay_monotonic = true;
      vp.telemetry = sink;
      private_report = verify::check_schedule(*problem, priv.schedule, vp);
    });
    const double outputs_s = timed(rec, "verify", "outputs", [&] {
      shared_ok = problem->verify(shared.exec);
      private_ok = problem->verify(priv.exec);
    });
    out.sample(prefix + "problem_key", static_cast<double>(i));
    out.sample(prefix + "problem_s", solo_s + shared_s + private_s + check_s + outputs_s);
    out.sample(prefix + "solo_s", solo_s);
    out.sample(prefix + "shared_s", shared_s);
    out.sample(prefix + "private_s", private_s);
    out.sample(prefix + "check_s", check_s / 2);

    const bool ok = shared_ok.ok() && private_ok.ok() && shared_report.ok() &&
                    private_report.ok() && priv.uncovered_nodes == 0;
    out.attempted += 1;
    out.failed += ok ? 0 : 1;
    out.check("schedules_verified", ok);
    verify_errors += static_cast<double>(shared_report.errors() + private_report.errors());

    // The verified tables once more, straight through the engine. Each
    // sample executes both tables; the first pair warms the executors up.
    const auto algos = problem->algorithm_ptrs();
    ExecConfig cfg;
    cfg.num_threads = opt.workers;
    Executor threaded(g, cfg);
    Executor serial(g);
    const std::pair<const ExecutionResult*, const ScheduleTable*> verified[] = {
        {&shared.exec, &shared.schedule}, {&priv.exec, &priv.schedule}};
    for (int rep = 0; rep <= kReexecSamples; ++rep) {
      double messages = 0;
      double run_s = 0;
      double run_serial_s = 0;
      for (const auto& [expected, table] : verified) {
        ExecutionResult a;
        ExecutionResult b;
        run_s += timed(rec, "congest", "run", [&] { a = threaded.run(algos, *table); });
        run_serial_s +=
            timed(rec, "congest", "run_serial", [&] { b = serial.run(algos, *table); });
        const std::uint64_t fp = result_fingerprint(*expected);
        out.check("reexecution_identity",
                  result_fingerprint(a) == fp && result_fingerprint(b) == fp);
        messages += static_cast<double>(a.total_messages);
        if (rep == 0 && processed < kBatch) {
          first_pass.exec_big_rounds += a.num_big_rounds;
          first_pass.exec_messages += static_cast<double>(a.total_messages);
          first_pass.exec_events += static_cast<double>(scheduled_events(*table));
        }
      }
      if (rep == 0) continue;
      out.sample(prefix + "run_key", static_cast<double>(i));
      out.sample(prefix + "run_s", run_s);
      out.sample(prefix + "run_serial_s", run_serial_s);
      out.sample(prefix + "exec_messages", messages);
    }

    if (processed < kBatch) {
      const double n = g.num_nodes();
      const double c = problem->congestion();
      const double d = problem->dilation();
      out.sample("len_ratio_shared",
                 static_cast<double>(shared.schedule_rounds) / (c + d * std::log2(n)));
      out.sample("len_ratio_private",
                 static_cast<double>(priv.schedule_rounds) / (c + d * std::log2(n)));
      out.sample("precompute_ratio", static_cast<double>(priv.precomputation_rounds) /
                                         (d * std::log(n) * std::log(n)));
      first_pass.congestion += c;
      first_pass.dilation += d;
      first_pass.precompute_rounds += static_cast<double>(priv.precomputation_rounds);
      first_pass.rounds_shared += static_cast<double>(shared.schedule_rounds);
      first_pass.rounds_private += static_cast<double>(priv.schedule_rounds);
      first_pass.min_coverage = std::min<double>(first_pass.min_coverage, priv.min_coverage);
      first_pass.uncovered_nodes += static_cast<double>(priv.uncovered_nodes);
    }
    ++processed;
    if (traced) ++traced_problems;
  };

  // The first pass over the batch always completes, so the deterministic
  // metrics cover the same problems on every run of a seed.
  auto measure = [&](double seconds, const std::string& prefix, bool traced) {
    Budget budget(seconds, processed < kBatch ? kBatch : 1);
    for (std::size_t i = 0; !budget.done(); i = (i + 1) % kBatch) {
      if (setup_due(budget, setups)) resetup();
      process(i, prefix, traced);
      budget.tick();
    }
  };
  if (opt.trace) {
    measure(opt.seconds / 2, "base_", false);
    rec.open_window();
    measure(opt.seconds / 2, "", true);
    rec.close_window();
  } else {
    measure(opt.seconds, "", false);
  }

  auto& v = out.values;
  v["traced_problems"] = static_cast<double>(traced_problems);
  v["congestion"] = first_pass.congestion / kBatch;
  v["dilation"] = first_pass.dilation / kBatch;
  v["precompute_rounds"] = first_pass.precompute_rounds / kBatch;
  v["schedule_rounds_shared"] = first_pass.rounds_shared / kBatch;
  v["schedule_rounds_private"] = first_pass.rounds_private / kBatch;
  v["min_coverage"] = first_pass.min_coverage;
  v["uncovered_nodes"] = first_pass.uncovered_nodes;
  v["big_rounds"] = first_pass.exec_big_rounds;
  v["messages"] = first_pass.exec_messages;
  v["events"] = first_pass.exec_events;
  v["verify_errors"] = verify_errors;
  v["sim_big_rounds"] = static_cast<double>(rec.counter("clustering.rounds") +
                                            rec.counter("rand_sharing.rounds"));
}

}  // namespace perfbench
