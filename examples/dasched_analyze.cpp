// dasched_analyze: static congestion/dilation certificates from the command
// line -- no execution.
//
//   dasched_analyze [--graph FAMILY] [--n N] [--k K] [--radius R]
//                   [--workload KIND] [--seed S] [--cross-check]
//                   [--report OUT.json]
//
// Builds the instance (same flags as dasched_cli) and runs the static pattern
// analyzer (src/analysis) over every algorithm in the workload: each one gets
// a certificate -- exact (full load surface + derived outputs), upper-bound
// (envelope), or fallback (whole-bandwidth) -- printed as one table row, plus
// the workload-level certified congestion bound the scheduler can consume
// before any solo run exists (docs/ANALYSIS.md).
//
// --cross-check additionally solo-executes every algorithm and joins the
// certificates against the runs with verify::check_certificate: exact
// certificates must match cell-for-cell and output-for-output, envelopes must
// dominate. This is the CLI face of the trust argument the service's static
// admission rests on. Exit status:
//   0  analysis done (and, with --cross-check, every certificate verified)
//   1  cross-check raised error findings
//   2  bad flags
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "analysis/analyzer.hpp"
#include "cli_common.hpp"
#include "congest/simulator.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"
#include "verify/certificate_check.hpp"

namespace {

using namespace dasched;

struct Options {
  std::string graph = "gnp";
  NodeId n = 150;
  std::size_t k = 12;
  std::uint32_t radius = 4;
  std::string workload = "mixed";
  std::uint64_t seed = 1;
  bool cross_check = false;
  std::string report_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--graph gnp|grid|torus|path|cycle|tree|regular] [--n N]\n"
               "          [--k K] [--radius R] [--workload mixed|broadcast|bfs|routing]\n"
               "          [--seed S] [--cross-check] [--report OUT.json]\n",
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
    if (const char* v = need("--graph")) {
      opt.graph = v;
    } else if (const char* v2 = need("--n")) {
      opt.n = cli::parse_u32_or_exit(v2, "--n");
    } else if (const char* v3 = need("--k")) {
      opt.k = cli::parse_u64_or_exit(v3, "--k");
    } else if (const char* v4 = need("--radius")) {
      opt.radius = cli::parse_u32_or_exit(v4, "--radius");
    } else if (const char* v5 = need("--workload")) {
      opt.workload = v5;
    } else if (const char* v6 = need("--seed")) {
      opt.seed = cli::parse_u64_or_exit(v6, "--seed");
    } else if (std::strcmp(argv[i], "--cross-check") == 0) {
      opt.cross_check = true;
    } else if (const char* vr = need("--report")) {
      opt.report_path = vr;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  const auto g = cli::make_graph(opt.graph, opt.n, opt.seed);
  const auto problem = cli::make_problem(g, opt.workload, opt.k, opt.radius, opt.seed);

  std::printf("graph=%s n=%u m=%u   workload=%s k=%zu radius=%u seed=%llu\n\n",
              opt.graph.c_str(), g.num_nodes(), g.num_edges(), opt.workload.c_str(),
              opt.k, opt.radius, static_cast<unsigned long long>(opt.seed));

  const auto certs = problem->analyze_static();
  std::size_t exact = 0;
  Table table("static certificates (no execution)");
  table.set_header({"alg", "name", "kind", "rounds", "congestion", "per-edge",
                    "messages", "last-round", "outputs"});
  for (std::size_t a = 0; a < certs.size(); ++a) {
    const auto& cert = certs[a];
    exact += cert.exact() ? 1 : 0;
    table.add_row({Table::fmt(std::uint64_t{a}), cert.algorithm,
                   analysis::to_string(cert.kind), Table::fmt(std::uint64_t{cert.rounds}),
                   Table::fmt(std::uint64_t{cert.congestion}),
                   Table::fmt(std::uint64_t{cert.per_edge_bound}),
                   Table::fmt(cert.total_messages),
                   Table::fmt(std::uint64_t{cert.last_message_round}),
                   cert.has_outputs ? "derived" : "-"});
  }
  table.print(std::cout);
  std::printf("\ncertified: congestion <= %u, dilation = %u   (%zu/%zu exact)\n",
              problem->certified_congestion_bound(), problem->dilation(), exact,
              certs.size());

  verify::Report report;
  if (opt.cross_check) {
    const auto algos = problem->algorithm_ptrs();
    for (std::size_t a = 0; a < algos.size(); ++a) {
      verify::check_certificate(certs[a], solo_run(g, *algos[a]),
                                report, static_cast<std::int64_t>(a));
    }
    std::printf("\n");
    report.to_table("cross-check findings").print(std::cout);
    std::printf("errors=%llu warnings=%llu infos=%llu\n",
                static_cast<unsigned long long>(report.errors()),
                static_cast<unsigned long long>(report.warnings()),
                static_cast<unsigned long long>(report.infos()));
  }

  int rc = (opt.cross_check && !report.ok()) ? 1 : 0;
  if (!opt.report_path.empty()) {
    RunReport run_report;
    run_report.set_meta("tool", "dasched_analyze");
    run_report.set_meta("graph", opt.graph);
    run_report.set_meta("n", std::uint64_t{g.num_nodes()});
    run_report.set_meta("workload", opt.workload);
    run_report.set_meta("k", std::uint64_t{opt.k});
    run_report.set_meta("seed", std::uint64_t{opt.seed});
    run_report.set_meta("exact_certificates", std::uint64_t{exact});
    run_report.set_meta("certified_congestion_bound",
                        std::uint64_t{problem->certified_congestion_bound()});
    run_report.set_meta("dilation", std::uint64_t{problem->dilation()});
    run_report.set_meta("cross_check", opt.cross_check ? "yes" : "no");
    if (opt.cross_check) report.to_run_report(run_report);
    if (run_report.write_file(opt.report_path)) {
      std::printf("report written to %s\n", opt.report_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write report to %s\n", opt.report_path.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
