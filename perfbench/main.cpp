// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one workload (flood_large, flood_faulty, das_batch, service_stream)
// whose inputs are pure functions of --seed, measures it for about S seconds,
// checks its outputs, and prints one JSON object of raw measurements as the
// last line of stdout. run.py turns that into the named metrics of
// BENCHMARK.json; README.md describes both. With --trace 1 the spans are
// also written as a Chrome trace to --trace-out.
#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "congest/schedule_table.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "util/flags.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t scheduled_events(const dasched::ScheduleTable& t) {
  std::uint64_t events = 0;
  for (std::size_t a = 0; a < t.num_algorithms(); ++a) {
    for (dasched::NodeId v = 0; v < t.num_nodes(); ++v) {
      for (std::uint32_t r = 1; r <= t.rounds(a); ++r) {
        if (t.at(a, v, r) != dasched::kNeverScheduled) ++events;
      }
    }
  }
  return events;
}

namespace {

/// The CPU brand string, read with cpuid (no file access).
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

double llc_mib() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long bytes = sysconf(name);
    if (bytes > 0) return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
  return 0.0;
}

double ram_mib() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGESIZE);
  return pages > 0 && page > 0
             ? static_cast<double>(pages) * static_cast<double>(page) / (1024.0 * 1024.0)
             : 0.0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

void write_report(const Options& opt, const Recorder& rec, const Report& r) {
  std::ostringstream os;
  dasched::json::Writer w(os);
  w.begin_object();
  w.kv("workload", std::string_view(opt.workload));
  w.kv("seed", opt.seed);
  w.kv("trace", opt.trace);
  w.key("machine");
  w.begin_object();
  w.kv("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  w.kv("workers", std::uint64_t{opt.workers});
  w.kv("cpu_model", std::string_view(cpu_model()));
  w.kv("llc_mib", llc_mib());
  w.kv("ram_mib", ram_mib());
  w.kv("compiler", std::string_view(compiler()));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.end_object();
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.kv("peak_rss_mib", peak_rss_mib());
  w.key("checks");
  w.begin_object();
  for (const auto& [name, ok] : r.checks) w.kv(name, ok);
  w.end_object();
  w.key("samples");
  w.begin_object();
  for (const auto& [name, xs] : r.samples) {
    w.key(name);
    w.begin_array();
    for (const double x : xs) w.value(x);
    w.end_array();
  }
  w.end_object();
  w.key("values");
  w.begin_object();
  for (const auto& [name, x] : r.values) w.kv(name, x);
  w.end_object();
  w.key("latency_ticks");
  w.begin_array();
  for (const auto t : r.latency_ticks) w.value(t);
  w.end_array();
  w.kv("window_us", rec.window_us());
  w.key("spans");
  w.begin_array();
  for (const auto& s : rec.spans()) {
    w.begin_array();
    w.value(std::string_view(s.category));
    w.value(std::string_view(s.name));
    w.value(s.start_us);
    w.value(s.dur_us);
    w.value(s.id);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  std::cout << os.str() << "\n";
}

bool write_trace(const Recorder& rec, const std::string& path) {
  dasched::ChromeTraceSink sink("perfbench");
  for (const auto& s : rec.spans()) {
    const dasched::SpanArg args[] = {{"id", static_cast<double>(s.id)}};
    sink.record_span(s.category, s.name, s.start_us, s.dur_us, args);
  }
  return sink.write_file(path);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t u = 0;
    double d = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!dasched::parse_flag_u64(value, &u)) return usage("--seed must be an integer");
      opt.seed = u;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!dasched::parse_flag_double(value, &d) || d <= 0 || d > 600) {
        return usage("--seconds must be in (0, 600]");
      }
      opt.seconds = d;
    } else if (flag == "--trace") {
      if (!dasched::parse_flag_u64(value, &u) || u > 1) return usage("--trace must be 0 or 1");
      opt.trace = u == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  opt.workers = std::max(1u, std::thread::hardware_concurrency());

  Recorder rec;
  Report report;
  if (opt.workload == "flood_large") {
    run_flood_large(opt, rec, report);
  } else if (opt.workload == "flood_faulty") {
    run_flood_faulty(opt, rec, report);
  } else if (opt.workload == "das_batch") {
    run_das_batch(opt, rec, report);
  } else if (opt.workload == "service_stream") {
    run_service_stream(opt, rec, report);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace && !opt.trace_out.empty() && !write_trace(rec, opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  write_report(opt, rec, report);
  return 0;
}
