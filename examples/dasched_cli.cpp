// dasched_cli: a command-line driver over the library.
//
//   dasched_cli [--graph FAMILY] [--n N] [--k K] [--radius R]
//               [--workload KIND] [--scheduler NAME] [--seed S] [--threads T]
//               [--verify] [--profile] [--flight OUT.flight.json]
//               [--fault-seed S] [--drop-rate P] [--dup-rate P] [--crash K]
//               [--outages K] [--retries R]
//               [--report OUT.json] [--trace OUT.trace.json]
//
//   FAMILY:    gnp | grid | torus | path | cycle | tree | regular   (default gnp)
//   KIND:      mixed | broadcast | bfs | routing                    (default mixed)
//   NAME:      all | sequential | greedy | shared | private | global | doubling
//
// Prints the instance's congestion/dilation, then one row per scheduler with
// the realized schedule length, pre-computation rounds, and verification.
//
// Fault flags run the Theorem 1.1 schedule on an unreliable network
// (docs/FAULTS.md): --drop-rate/--dup-rate are per-message probabilities,
// --crash picks K random crash-stop nodes, --outages K random link outages,
// all seeded by --fault-seed so faulty runs are exactly reproducible at any
// --threads value. --retries R adds the reliable-delivery layer (bounded
// retransmissions, exponential backoff) on a retry-stretched schedule and
// reports the recovery alongside the unprotected run, plus the per-big-round
// slack of the schedule.
//
// --report writes a structured JSON run report (instance metadata, the
// schedulers table, and a telemetry snapshot of counters/histograms/spans);
// --trace writes Chrome trace_event JSON of the scheduler pipeline stages and
// per-big-round executor spans, viewable in chrome://tracing or Perfetto.
// See docs/OBSERVABILITY.md for both schemas. Either flag enables telemetry;
// without them the schedulers run with a null sink (zero overhead).
//
// --threads T runs the shared/private scheduled executions on T worker
// threads (0 = serial, the default). Results are bit-identical for every
// value; see docs/PERFORMANCE.md.
//
// --verify statically checks every executed schedule with
// verify::check_schedule (docs/VERIFICATION.md): the schedulers table gains a
// "verify" column, per-scheduler findings tables are printed, findings are
// merged into the --report `findings` section, and the exit status is nonzero
// when any error-severity finding is raised. With --retries R the
// retry-stretched schedule is additionally verified with the 2^R headroom
// invariant (the static form of the stretch lemma in docs/FAULTS.md).
//
// --profile attaches an ExecProfiler (docs/OBSERVABILITY.md) to the profiled
// executions (shared/private schedulers and the faulty runs): prints top-N
// hot-edge / hot-round heatmap tables, embeds a `profile` section in the
// --report JSON, and -- combined with --verify -- joins the measured load
// surface against the verifier's statically predicted one (the divergence
// monitor; on a reliable run the surfaces must agree exactly).
//
// --flight OUT.flight.json attaches a bounded flight recorder: the most
// recent deliveries, drops, retries, and barrier summaries per worker ring.
// The executor dumps it automatically on unit-capacity overflow or
// crash-stop faults; the CLI writes a final dump on exit if no incident
// dumped one first.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/reliable.hpp"
#include "fault/robustness.hpp"
#include "graph/algorithms.hpp"
#include "sched/baseline.hpp"
#include "sched/doubling.hpp"
#include "sched/global_sharing.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "util/math.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"
#include "verify/divergence.hpp"
#include "verify/schedule_verifier.hpp"

namespace {

using namespace dasched;

struct Options {
  std::string graph = "gnp";
  NodeId n = 150;
  std::size_t k = 12;
  std::uint32_t radius = 4;
  std::string workload = "mixed";
  std::string scheduler = "all";
  std::uint64_t seed = 1;
  std::uint32_t threads = 0;  // executor workers; 0 = serial
  bool verify_schedules = false;  // --verify: static checks on every schedule
  bool profile = false;       // --profile: congestion profiler + hot tables
  std::string report_path;    // --report: structured JSON run report
  std::string trace_path;     // --trace: Chrome trace_event JSON
  std::string flight_path;    // --flight: flight-recorder post-mortem JSON

  // Fault-injection flags (docs/FAULTS.md).
  std::uint64_t fault_seed = 1;
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  std::uint32_t crash = 0;    // random crash-stop nodes
  std::uint32_t outages = 0;  // random link outages
  std::uint32_t retries = 0;  // reliable-delivery retry budget

  bool any_faults() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || crash > 0 || outages > 0;
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--graph gnp|grid|torus|path|cycle|tree|regular] [--n N]\n"
               "          [--k K] [--radius R] [--workload mixed|broadcast|bfs|routing]\n"
               "          [--scheduler all|sequential|greedy|shared|private|global|doubling]\n"
               "          [--seed S] [--threads T] [--verify] [--profile]\n"
               "          [--flight OUT.flight.json] [--fault-seed S]\n"
               "          [--drop-rate P] [--dup-rate P] [--crash K] [--outages K]\n"
               "          [--retries R] [--report OUT.json] [--trace OUT.trace.json]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--verify") == 0) {
      opt.verify_schedules = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      opt.profile = true;
    } else if (const char* vfl = need("--flight")) {
      opt.flight_path = vfl;
    } else if (const char* v = need("--graph")) {
      opt.graph = v;
    } else if (const char* v2 = need("--n")) {
      opt.n = cli::parse_u32_or_exit(v2, "--n");
    } else if (const char* v3 = need("--k")) {
      opt.k = cli::parse_u64_or_exit(v3, "--k");
    } else if (const char* v4 = need("--radius")) {
      opt.radius = cli::parse_u32_or_exit(v4, "--radius");
    } else if (const char* v5 = need("--workload")) {
      opt.workload = v5;
    } else if (const char* v6 = need("--scheduler")) {
      opt.scheduler = v6;
    } else if (const char* v7 = need("--seed")) {
      opt.seed = cli::parse_u64_or_exit(v7, "--seed");
    } else if (const char* vt = need("--threads")) {
      opt.threads = cli::parse_u32_or_exit(vt, "--threads");
    } else if (const char* vfs = need("--fault-seed")) {
      opt.fault_seed = cli::parse_u64_or_exit(vfs, "--fault-seed");
    } else if (const char* vdr = need("--drop-rate")) {
      opt.drop_rate = cli::parse_prob_or_exit(vdr, "--drop-rate");
    } else if (const char* vdu = need("--dup-rate")) {
      opt.dup_rate = cli::parse_prob_or_exit(vdu, "--dup-rate");
    } else if (const char* vcr = need("--crash")) {
      opt.crash = cli::parse_u32_or_exit(vcr, "--crash");
    } else if (const char* vou = need("--outages")) {
      opt.outages = cli::parse_u32_or_exit(vou, "--outages");
    } else if (const char* vre = need("--retries")) {
      opt.retries = cli::parse_u32_or_exit(vre, "--retries");
    } else if (const char* v8 = need("--report")) {
      opt.report_path = v8;
    } else if (const char* v9 = need("--trace")) {
      opt.trace_path = v9;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

Graph make_graph(const Options& opt) {
  return cli::make_graph(opt.graph, opt.n, opt.seed);
}

std::unique_ptr<ScheduleProblem> make_problem(const Graph& g, const Options& opt) {
  return cli::make_problem(g, opt.workload, opt.k, opt.radius, opt.seed);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  const auto g = make_graph(opt);
  std::printf("graph=%s n=%u m=%u   workload=%s k=%zu radius=%u seed=%llu\n",
              opt.graph.c_str(), g.num_nodes(), g.num_edges(), opt.workload.c_str(),
              opt.k, opt.radius, static_cast<unsigned long long>(opt.seed));

  // Telemetry is enabled by --report/--trace; a null sink otherwise.
  const bool telemetry_on = !opt.report_path.empty() || !opt.trace_path.empty();
  MetricsRegistry metrics;
  ChromeTraceSink trace("dasched_cli");
  TeeSink tee({&metrics, &trace});
  TelemetrySink* const sink = telemetry_on ? &tee : nullptr;

  auto probe = make_problem(g, opt);
  probe->run_solo();
  std::printf("congestion=%u dilation=%u trivial-LB=%u\n\n", probe->congestion(),
              probe->dilation(), probe->trivial_lower_bound());

  // --profile: one congestion profiler shared by every profiled execution
  // (each run resets it); the report embeds the last profiled run's snapshot.
  ExecProfiler profiler;
  ExecProfiler* const prof = opt.profile ? &profiler : nullptr;
  // --flight: a bounded flight recorder whose post-mortem dumps land at the
  // given path (the executor dumps automatically on incidents).
  FlightRecorderConfig flight_cfg;
  flight_cfg.dump_path = opt.flight_path;
  FlightRecorder recorder(flight_cfg);
  FlightRecorder* const rec = opt.flight_path.empty() ? nullptr : &recorder;

  auto edge_label = [&](std::uint32_t d) {
    const auto [lo, hi] = g.endpoints(d / 2);
    const NodeId from = (d % 2 == 0) ? lo : hi;
    const NodeId to = (d % 2 == 0) ? hi : lo;
    return std::to_string(from) + "->" + std::to_string(to);
  };
  std::string profile_json;
  std::string profiled_name;
  std::vector<Table> profile_tables;
  // Captures the profiler's last run (tables + JSON + telemetry); the tables
  // are printed after the schedulers summary so output stays grouped.
  auto render_profile = [&](const std::string& name) {
    if (prof == nullptr || profiler.runs() == 0) return;
    profile_tables.clear();
    profile_tables.push_back(profiler.hot_edges_table(10, edge_label));
    profile_tables.push_back(profiler.hot_rounds_table(10));
    profiler.emit(sink);
    profile_json = profiler.to_json();
    profiled_name = name;
  };

  Table table("schedulers");
  table.set_header({"scheduler", "schedule rounds", "pre rounds", "correct", "verify"});
  auto want = [&](const char* name) {
    return opt.scheduler == "all" || opt.scheduler == name;
  };

  // Static verification (--verify): per-scheduler findings, merged into the
  // run report and summed into the exit status.
  std::vector<std::pair<std::string, verify::Report>> verify_reports;
  std::vector<std::string> divergence_lines;
  std::uint64_t verify_errors = 0;
  auto verify_cell = [&](const char* name, ScheduleProblem& p,
                         const ScheduleTable& sched, verify::VerifyOptions vopts,
                         std::vector<LoadCell>* static_loads = nullptr) -> std::string {
    if (!opt.verify_schedules) return "-";
    vopts.telemetry = sink;
    auto vr = verify::check_schedule(p, sched, vopts, static_loads);
    const std::string cell =
        vr.ok() ? "clean" : Table::fmt(vr.errors()) + " errors";
    verify_errors += vr.errors();
    verify_reports.emplace_back(name, std::move(vr));
    return cell;
  };
  // --profile + --verify on a reliable run: join the measured load surface
  // against the statically predicted one. They must agree exactly
  // (docs/VERIFICATION.md, divergence.* codes); any warning is a divergence.
  auto divergence_check = [&](const char* name,
                              const std::vector<LoadCell>& predicted) {
    if (prof == nullptr || !opt.verify_schedules || profiler.runs() == 0) return;
    verify::DivergenceOptions dopts;
    dopts.scheduled_big_rounds = verify_reports.empty()
                                     ? 0
                                     : verify_reports.back().second.measured.big_rounds;
    dopts.telemetry = sink;
    auto dr = verify::check_divergence(predicted, profiler, dopts);
    divergence_lines.push_back(
        std::string("divergence (") + name + "): " +
        (dr.warnings() == 0 ? "measured == predicted"
                            : "MEASURED != PREDICTED -- see findings"));
    verify_reports.emplace_back(std::string(name) + "-divergence", std::move(dr));
  };

  if (want("sequential")) {
    auto p = make_problem(g, opt);
    const auto out = SequentialScheduler{}.run(*p);
    verify::VerifyOptions vopts;
    vopts.congestion_budget = 1;  // one physical round per big-round
    vopts.phase_len = 1;
    table.add_row({"sequential", Table::fmt(out.schedule_rounds), "0",
                   p->verify(out.exec).ok() ? "yes" : "NO",
                   verify_cell("sequential", *p, out.schedule, vopts)});
  }
  if (want("greedy")) {
    auto p = make_problem(g, opt);
    const auto out = GreedyScheduler{}.run(*p);
    verify::VerifyOptions vopts;
    vopts.congestion_budget = 1;
    vopts.phase_len = 1;
    table.add_row({"greedy", Table::fmt(out.schedule_rounds), "0",
                   p->verify(out.exec).ok() ? "yes" : "NO",
                   verify_cell("greedy", *p, out.schedule, vopts)});
  }
  if (want("shared")) {
    auto p = make_problem(g, opt);
    SharedSchedulerConfig cfg;
    cfg.shared_seed = opt.seed;
    cfg.num_threads = opt.threads;
    cfg.telemetry = sink;
    cfg.profiler = prof;
    const auto out = SharedRandomnessScheduler(cfg).run(*p);
    verify::VerifyOptions vopts;
    vopts.phase_len = out.phase_len;  // congestion is w.h.p., so measure only
    std::vector<LoadCell> predicted;
    table.add_row({"shared (Thm 1.1)", Table::fmt(out.schedule_rounds), "0",
                   p->verify(out.exec).ok() ? "yes" : "NO",
                   verify_cell("shared", *p, out.schedule, vopts,
                               prof != nullptr ? &predicted : nullptr)});
    render_profile("shared");
    divergence_check("shared", predicted);
  }
  if (want("private")) {
    auto p = make_problem(g, opt);
    PrivateSchedulerConfig cfg;
    cfg.seed = opt.seed;
    cfg.num_threads = opt.threads;
    cfg.telemetry = sink;
    cfg.profiler = prof;
    const auto out = PrivateRandomnessScheduler(cfg).run(*p);
    verify::VerifyOptions vopts;
    vopts.phase_len = out.phase_len;
    vopts.delay_support = out.delay_support;  // Lemma 4.4 block membership
    vopts.check_delay_monotonic = true;
    std::vector<LoadCell> predicted;
    table.add_row({"private (Thm 4.1)", Table::fmt(out.schedule_rounds),
                   Table::fmt(out.precomputation_rounds),
                   (p->verify(out.exec).ok() && out.uncovered_nodes == 0) ? "yes" : "NO",
                   verify_cell("private", *p, out.schedule, vopts,
                               prof != nullptr ? &predicted : nullptr)});
    render_profile("private");
    divergence_check("private", predicted);
  }
  if (want("global")) {
    auto p = make_problem(g, opt);
    GlobalSharingConfig cfg;
    cfg.seed = opt.seed;
    const auto out = GlobalSharingScheduler(cfg).run(*p);
    verify::VerifyOptions vopts;
    vopts.phase_len = out.schedule.phase_len;
    table.add_row({"global sharing", Table::fmt(out.schedule.schedule_rounds),
                   Table::fmt(out.precomputation_rounds),
                   (p->verify(out.schedule.exec).ok() && out.sharing_complete) ? "yes"
                                                                               : "NO",
                   verify_cell("global", *p, out.schedule.schedule, vopts)});
  }
  if (want("doubling")) {
    auto p = make_problem(g, opt);
    const auto out = run_with_doubling(*p);
    verify::VerifyOptions vopts;
    vopts.phase_len = out.final.phase_len;
    table.add_row({"doubling (unknown C)", Table::fmt(out.total_rounds), "0",
                   p->verify(out.final.exec).ok() ? "yes" : "NO",
                   verify_cell("doubling", *p, out.final.schedule, vopts)});
  }
  table.print(std::cout);
  for (const auto& t : profile_tables) {
    std::printf("\n");
    t.print(std::cout);
  }
  for (const auto& line : divergence_lines) std::printf("%s\n", line.c_str());

  // --- Faulty execution of the Theorem 1.1 schedule (docs/FAULTS.md). ---
  Table fault_table("faulty execution (Thm 1.1 schedule)");
  Table slack_table("schedule slack");
  if (opt.any_faults() || opt.retries > 0) {
    auto p = make_problem(g, opt);
    p->run_solo();
    const auto algos = p->algorithm_ptrs();

    // The same parameters SharedRandomnessScheduler::run picks.
    const std::uint32_t log_n =
        std::max(1, ceil_log2(std::max<NodeId>(2, g.num_nodes())));
    const std::uint32_t phase_len = log_n;
    const std::uint32_t range = std::max<std::uint32_t>(
        1, (p->congestion() + phase_len - 1) / phase_len);
    const auto delays = SharedRandomnessScheduler::draw_delays(
        opt.seed, algos.size(), range, std::max<std::uint32_t>(2, log_n));
    const auto schedule = ScheduleTable::from_delays(algos, g.num_nodes(), delays);
    std::uint32_t last_round = 0;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      if (algos[a]->rounds() > 0) {
        last_round = std::max(last_round, delays[a] + algos[a]->rounds() - 1);
      }
    }

    FaultPlan plan;
    plan.seed = opt.fault_seed;
    plan.drop_rate = opt.drop_rate;
    plan.duplicate_rate = opt.dup_rate;
    add_random_crashes(plan, g.num_nodes(), opt.crash, last_round);
    add_random_outages(plan, g, opt.outages, last_round,
                       std::max<std::uint32_t>(1, (last_round + 1) / 4));
    const FaultInjector injector(g, plan);

    std::printf("\nfaults: seed=%llu drop=%.3f dup=%.3f crashes=%u outages=%u\n",
                static_cast<unsigned long long>(plan.seed), plan.drop_rate,
                plan.duplicate_rate, opt.crash, opt.outages);

    fault_table.set_header({"config", "big_rounds", "rounds", "attempts", "dropped",
                            "retx", "lost", "violations", "correct"});
    auto fault_row = [&](const char* label, const ScheduleTable& sched,
                         RetryPolicy retry) {
      ExecConfig ecfg;
      ecfg.num_threads = opt.threads;
      ecfg.telemetry = sink;
      ecfg.profiler = prof;
      ecfg.recorder = rec;
      ecfg.faults = &injector;
      ecfg.retry = retry;
      const auto exec = Executor(g, ecfg).run(algos, sched);
      const auto ver = p->verify(exec);
      fault_table.add_row(
          {label, Table::fmt(std::uint64_t{exec.num_big_rounds}),
           Table::fmt(exec.adaptive_physical_rounds()),
           Table::fmt(exec.faults.attempts), Table::fmt(exec.faults.dropped()),
           Table::fmt(exec.faults.retransmissions), Table::fmt(exec.faults.lost),
           Table::fmt(exec.causality_violations), ver.ok() ? "yes" : "NO"});
      return exec;
    };

    const auto unprotected = fault_row("no retries", schedule, RetryPolicy{});
    if (opt.retries > 0) {
      const RetryPolicy policy{opt.retries};
      const std::string label = "retries=" + std::to_string(opt.retries) +
                                " (stretch x" +
                                std::to_string(policy.stretch_factor()) + ")";
      const auto stretched = stretch_for_retries(schedule, policy);
      (void)fault_row(label.c_str(), stretched, policy);
      if (opt.verify_schedules) {
        // Static re-proof of the stretch lemma: on the stretched schedule
        // every consumer must land >= 2^R big-rounds after its producer.
        verify::VerifyOptions vopts;
        vopts.phase_len = phase_len;
        vopts.retry_budget = opt.retries;
        vopts.telemetry = sink;
        auto vr = verify::check_schedule(*p, stretched, vopts);
        verify_errors += vr.errors();
        verify_reports.emplace_back("shared+retries", std::move(vr));
      }
    }
    std::printf("\n");
    fault_table.print(std::cout);

    const auto slack =
        analyze_slack(unprotected.max_load_per_big_round, phase_len, sink);
    slack_table = slack.to_table("schedule slack (no-retries run, phase_len = " +
                                 std::to_string(phase_len) + ")");
    slack_table.print(std::cout);

    // The profiler now holds the last faulty run's surface (the retry run
    // when --retries was given, the unprotected one otherwise).
    render_profile(opt.retries > 0 ? "faulty+retries" : "faulty");
    for (const auto& t : profile_tables) {
      std::printf("\n");
      t.print(std::cout);
    }
  }

  if (opt.verify_schedules) {
    std::printf("\n");
    for (const auto& [name, vr] : verify_reports) {
      vr.to_table("verify: " + name).print(std::cout);
    }
    if (verify_errors > 0) {
      std::printf("verify: %llu error finding(s) -- see tables above\n",
                  static_cast<unsigned long long>(verify_errors));
    } else {
      std::printf("verify: all schedules clean\n");
    }
  }

  int rc = 0;
  if (!opt.report_path.empty()) {
    RunReport report;
    report.set_meta("tool", "dasched_cli");
    report.set_meta("graph", opt.graph);
    report.set_meta("n", std::uint64_t{g.num_nodes()});
    report.set_meta("m", std::uint64_t{g.num_edges()});
    report.set_meta("workload", opt.workload);
    report.set_meta("k", std::uint64_t{opt.k});
    report.set_meta("radius", std::uint64_t{opt.radius});
    report.set_meta("seed", std::uint64_t{opt.seed});
    report.set_meta("congestion", std::uint64_t{probe->congestion()});
    report.set_meta("dilation", std::uint64_t{probe->dilation()});
    report.set_meta("trivial_lower_bound", std::uint64_t{probe->trivial_lower_bound()});
    report.add_table(table);
    if (opt.any_faults() || opt.retries > 0) {
      report.set_meta("fault_seed", std::uint64_t{opt.fault_seed});
      report.set_meta("drop_rate", opt.drop_rate);
      report.set_meta("dup_rate", opt.dup_rate);
      report.set_meta("crash", std::uint64_t{opt.crash});
      report.set_meta("outages", std::uint64_t{opt.outages});
      report.set_meta("retries", std::uint64_t{opt.retries});
      report.add_table(fault_table);
      report.add_table(slack_table);
    }
    for (const auto& [name, vr] : verify_reports) {
      vr.to_run_report(report, "sched=" + name);
    }
    if (!profile_json.empty()) {
      report.set_meta("profiled", profiled_name);
      for (const auto& t : profile_tables) report.add_table(t);
      report.set_profile_json(profile_json);
    }
    report.attach_metrics(metrics);
    if (report.write_file(opt.report_path)) {
      std::printf("\nreport written to %s\n", opt.report_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write report to %s\n", opt.report_path.c_str());
      rc = 1;
    }
  }
  if (!opt.trace_path.empty()) {
    if (trace.write_file(opt.trace_path)) {
      std::printf("trace written to %s (%zu events)\n", opt.trace_path.c_str(),
                  trace.num_events());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", opt.trace_path.c_str());
      rc = 1;
    }
  }
  if (rec != nullptr) {
    // Incident dumps (crash faults, overflows) already landed; otherwise
    // leave a final snapshot so --flight always produces a file.
    if (rec->dumps_written() == 0) rec->dump_on("end_of_run");
    std::printf("flight recorder dump written to %s (last reason: %s)\n",
                opt.flight_path.c_str(), rec->last_reason().c_str());
  }
  if (verify_errors > 0) rc = 1;
  return rc;
}
