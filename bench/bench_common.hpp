// Shared helpers for the experiment benches E1..E10.
//
// Each bench binary regenerates one result of the paper (see DESIGN.md's
// per-experiment index): it prints the experiment table(s) first -- that is
// the reproduction artifact -- and then runs its google-benchmark timing
// cases, so `for b in build/bench/*; do $b; done` produces both.
//
// Every bench also understands four extra flags (consumed before the
// google-benchmark flags are parsed):
//   --report out.json   write a structured RunReport: every emitted table,
//                       cell-for-cell, plus run metadata. This is how the
//                       BENCH_*.json artifacts in the ROADMAP are produced --
//                       regenerate tables from JSON instead of scraping
//                       stdout. See docs/OBSERVABILITY.md.
//   --trace out.json    write a Chrome trace_event file of any telemetry the
//                       bench routed through bench::telemetry().
//   --threads N         executor worker threads for benches that run
//                       schedules (bench::num_threads(); 0 = serial). Results
//                       are bit-identical for every value -- this flag only
//                       changes wall-clock time (docs/PERFORMANCE.md).
//   --profile           turn on the congestion profiler for benches that run
//                       schedules (bench::profiler(); null when off, so the
//                       executor stays on its unprofiled path). The last
//                       profiled run's dasched.profile.v1 object is attached
//                       to the --report document.
// Tables are routed through bench::emit(table), which both prints the ASCII
// form and records the table into the report.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "congest/executor.hpp"
#include "util/flags.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace dasched::bench {

inline double log2n(double n) { return std::log2(std::max(2.0, n)); }

/// Prints the experiment header line used by EXPERIMENTS.md.
inline void experiment_banner(const char* id, const char* claim) {
  std::cout << "==================================================================\n"
            << id << ": " << claim << "\n"
            << "==================================================================\n\n";
}

struct ReportState {
  RunReport report;
  MetricsRegistry metrics;
  ChromeTraceSink trace{"dasched_bench"};
  TeeSink tee;
  std::string report_path;
  std::string trace_path;
  std::uint32_t num_threads = 0;
  bool profile = false;
  ExecProfiler profiler;

  ReportState() {
    tee.add(&metrics);
    tee.add(&trace);
  }
};

inline ReportState& report_state() {
  static ReportState state;
  return state;
}

/// The process-wide report; benches may add metadata to it directly.
inline RunReport& report() { return report_state().report; }

/// Sink benches can hand to scheduler configs (records into both the report's
/// metrics registry and the trace). Null when neither --report nor --trace
/// was given, so instrumented code stays on its zero-overhead path.
inline TelemetrySink* telemetry() {
  auto& s = report_state();
  return (s.report_path.empty() && s.trace_path.empty()) ? nullptr : &s.tee;
}

/// Executor worker threads requested via --threads (0 = serial). Benches that
/// execute schedules thread this into their scheduler/executor configs.
inline std::uint32_t num_threads() { return report_state().num_threads; }

/// Congestion profiler benches can hand to ExecConfig::profiler /
/// scheduler configs. Null unless --profile was given, keeping the executor
/// on its unprofiled path by default.
inline ExecProfiler* profiler() {
  auto& s = report_state();
  return s.profile ? &s.profiler : nullptr;
}

/// Prints the table (the stdout reproduction artifact) and records it into
/// the --report document.
inline void emit(const Table& table) {
  table.print(std::cout);
  report_state().report.add_table(table);
}

/// Strips --report/--trace/--threads/--profile from argv;
/// returns false on a malformed flag.
inline bool consume_report_flags(int* argc, char** argv) {
  auto& s = report_state();
  int write = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string* target = nullptr;
    if (std::strcmp(argv[i], "--report") == 0) {
      target = &s.report_path;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      target = &s.trace_path;
    }
    if (target != nullptr) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "%s requires a path argument\n", argv[i]);
        return false;
      }
      *target = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      s.profile = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "--threads requires a count argument\n");
        return false;
      }
      const char* arg = argv[++i];
      if (!parse_flag_u32(arg, &s.num_threads)) {
        std::fprintf(stderr, "--threads: invalid count '%s'\n", arg);
        return false;
      }
    } else {
      argv[write++] = argv[i];
    }
  }
  *argc = write;
  return true;
}

/// Writes the report/trace files if requested; returns 0 on success.
inline int flush_reports(const char* bench_name) {
  auto& s = report_state();
  int rc = 0;
  if (!s.report_path.empty()) {
    s.report.set_meta("bench", bench_name);
#ifdef DASCHED_BUILD_TYPE
    s.report.set_meta("build_type", DASCHED_BUILD_TYPE);
#else
    s.report.set_meta("build_type", "unknown");
#endif
    if (s.profile && s.profiler.runs() > 0) {
      s.report.set_profile_json(s.profiler.to_json());
    }
    if (!s.metrics.empty()) s.report.attach_metrics(s.metrics);
    if (!s.report.write_file(s.report_path)) {
      std::fprintf(stderr, "failed to write report to %s\n", s.report_path.c_str());
      rc = 1;
    }
  }
  if (!s.trace_path.empty() && !s.trace.write_file(s.trace_path)) {
    std::fprintf(stderr, "failed to write trace to %s\n", s.trace_path.c_str());
    rc = 1;
  }
  return rc;
}

}  // namespace dasched::bench

#define DASCHED_BENCH_MAIN(print_tables_fn)               \
  int main(int argc, char** argv) {                       \
    if (!::dasched::bench::consume_report_flags(&argc, argv)) return 2; \
    print_tables_fn();                                    \
    ::benchmark::Initialize(&argc, argv);                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                \
    ::benchmark::Shutdown();                              \
    return ::dasched::bench::flush_reports(argv[0]);      \
  }
