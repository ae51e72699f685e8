// E17 -- static admission: certificate-profiled cold starts vs solo execution.
//
// E16 measures the service's steady state, where the profile cache absorbs
// most solo runs. E17 measures the cold-start path that remains: every cache
// miss needs the job's solo communication pattern before the daemon can fold
// it into the composite schedule. With static admission (the default,
// docs/ANALYSIS.md) that pattern is *derived* by the static analyzer from the
// program's declarative footprint -- no execution -- and with it disabled the
// daemon falls back to a solo run on the simulator.
//
//   E17.a  the E16 arrival ladder, served twice per rung (static admission on
//          and off), serially and at 2 and 4 executor threads. Reported per
//          rung: stream size, cache misses, the static/executed profile
//          split, wall time spent profiling under each mode, the derived
//          speedup, end-to-end jobs/sec under each mode, and the identity
//          verdict ("identical": service fingerprints agree across BOTH modes
//          and ALL thread counts, and the timing-free service document is
//          byte-stable across thread counts within each mode -- certificates
//          are cell-for-cell solo-equal, so how a profile was produced must
//          be unobservable).
//   E17.b  admission latency under a disabled cache (capacity 0): every
//          admission re-profiles, so profile wall time / misses is the
//          per-job cold-start admission cost, compared static vs executed.
//
// The identity verdict and the static-coverage verdict (static mode never
// solo-executes a profile: the stream's spec kinds all carry exact
// footprints) gate the exit code: main() exits 3 if either fails, and CI runs
// the ladder as a Release smoke test with exactly that contract.
//
// Flags (beyond bench_common's --report/--trace/--threads/--profile):
//   --duration TICKS   arrival window per rung (default 96)
//   --tenants T        tenants per stream (default 4)
//   --arrival-seed S   stream seed (default 1)
//   --max-rate R       drop ladder rungs with arrival rate > R
#include "bench_common.hpp"

#include "graph/generators.hpp"
#include "service/daemon.hpp"
#include "service/job_stream.hpp"

namespace dasched {
namespace {

std::uint64_t g_duration = 96;
std::uint32_t g_tenants = 4;
std::uint64_t g_arrival_seed = 1;
double g_max_rate = 1e9;
// Sticky verdicts consumed by main(): identity across modes and thread
// counts, and full static coverage of the stream's spec kinds.
bool g_identity_ok = true;
bool g_static_ok = true;

constexpr NodeId kNodes = 300;
constexpr double kArrivalLadder[] = {0.25, 0.5, 1.0, 2.0};

std::vector<service::JobRequest> make_stream(const Graph& g, double rate) {
  service::JobStreamConfig cfg;
  cfg.arrival_rate = rate;
  cfg.arrival_seed = g_arrival_seed;
  cfg.tenants = g_tenants;
  cfg.duration = g_duration;
  return service::generate_job_stream(cfg, g.num_nodes());
}

service::ServiceResult serve_once(const Graph& g, const std::vector<service::JobRequest>& stream,
                                  bool static_admission, std::uint32_t threads,
                                  std::size_t cache_capacity = 64) {
  service::ServiceConfig cfg;
  cfg.delay_seed = 7;
  cfg.epoch_ticks = 8;
  cfg.cache_capacity = cache_capacity;
  cfg.static_admission = static_admission;
  cfg.num_threads = threads;
  service::SchedulerDaemon daemon(g, cfg);
  return daemon.serve(stream);
}

void run_arrival_ladder(const Graph& g) {
  Table table("E17.a -- cold-start profiling, static vs executed (n = " +
              std::to_string(kNodes) + ", tenants = " + std::to_string(g_tenants) +
              ", duration = " + std::to_string(g_duration) + ")");
  table.set_header({"rate", "jobs", "misses", "static", "executed",
                    "profile ms (st)", "profile ms (ex)", "speedup",
                    "jobs/s (st)", "jobs/s (ex)", "identical"});

  for (const double rate : kArrivalLadder) {
    if (rate > g_max_rate) continue;
    const auto stream = make_stream(g, rate);

    // serial baselines per mode, then the threaded identity sweep.
    service::ServiceResult by_mode[2];
    bool rung_identical = true;
    for (const bool static_admission : {true, false}) {
      service::ServiceResult& serial = by_mode[static_admission ? 0 : 1];
      std::string serial_json;
      for (const std::uint32_t threads : {0u, 2u, 4u}) {
        service::ServiceResult result = serve_once(g, stream, static_admission, threads);
        if (threads == 0) {
          serial = std::move(result);
          serial_json = serial.to_json(false);
        } else {
          rung_identical = rung_identical &&
                           result.fingerprint == serial.fingerprint &&
                           result.to_json(false) == serial_json;
        }
      }
    }
    const auto& st = by_mode[0].stats;
    const auto& ex = by_mode[1].stats;
    // Across modes only the fingerprint (and outcomes) can be compared: the
    // deterministic document legitimately differs in the profiling split.
    rung_identical = rung_identical && by_mode[0].fingerprint == by_mode[1].fingerprint;
    const bool rung_static = st.profiles_executed == 0 && st.profiles_static == st.cache.misses;
    g_identity_ok = g_identity_ok && rung_identical;
    g_static_ok = g_static_ok && rung_static;

    const double speedup = st.profile_seconds > 0.0
                               ? ex.profile_seconds / st.profile_seconds
                               : 0.0;
    table.add_row({Table::fmt(rate, 2), Table::fmt(st.arrived),
                   Table::fmt(st.cache.misses), Table::fmt(st.profiles_static),
                   Table::fmt(ex.profiles_executed),
                   Table::fmt(st.profile_seconds * 1e3, 2),
                   Table::fmt(ex.profile_seconds * 1e3, 2), Table::fmt(speedup, 1),
                   Table::fmt(by_mode[0].jobs_per_sec(), 1),
                   Table::fmt(by_mode[1].jobs_per_sec(), 1),
                   rung_identical && rung_static ? "yes" : "NO"});
  }
  bench::emit(table);
}

void run_admission_latency(const Graph& g) {
  Table table("E17.b -- per-job admission latency, cache disabled (every "
              "admission re-profiles)");
  table.set_header({"mode", "jobs", "profiled", "profile ms", "us/job",
                    "jobs/s", "completed"});
  const auto stream = make_stream(g, 1.0);
  for (const bool static_admission : {true, false}) {
    const auto result = serve_once(g, stream, static_admission, 0, /*cache_capacity=*/0);
    const auto& stats = result.stats;
    const std::uint64_t profiled = stats.profiles_static + stats.profiles_executed;
    if (static_admission) {
      g_static_ok = g_static_ok && stats.profiles_executed == 0;
    }
    table.add_row({static_admission ? "static" : "executed", Table::fmt(stats.arrived),
                   Table::fmt(profiled), Table::fmt(stats.profile_seconds * 1e3, 2),
                   Table::fmt(profiled > 0 ? stats.profile_seconds * 1e6 /
                                                 static_cast<double>(profiled)
                                           : 0.0, 1),
                   Table::fmt(result.jobs_per_sec(), 1), Table::fmt(stats.completed)});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner("E17 (static admission)",
                           "cache-miss profiles from static certificates vs "
                           "solo execution: admission latency and identity");
  Rng rng(17001);
  const Graph g = make_gnp_connected(kNodes, 6.0 / kNodes, rng);
  run_arrival_ladder(g);
  run_admission_latency(g);
  if (!g_identity_ok) {
    std::cout << "IDENTITY FAILURE: static and executed profiling trajectories diverged\n";
  }
  if (!g_static_ok) {
    std::cout << "COVERAGE FAILURE: static admission fell back to solo execution\n";
  }
}

void bm_serve_cold(benchmark::State& state) {
  Rng rng(17002);
  static const Graph g = make_gnp_connected(200, 6.0 / 200, rng);
  static const auto stream = [] {
    service::JobStreamConfig cfg;
    cfg.arrival_rate = 0.5;
    cfg.arrival_seed = 2;
    cfg.tenants = 4;
    cfg.duration = 48;
    return service::generate_job_stream(cfg, 200);
  }();
  const bool static_admission = state.range(0) != 0;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    // Cache disabled: the loop body is dominated by per-job profiling, the
    // quantity under test.
    const auto result = serve_once(g, stream, static_admission, 0, 0);
    completed += result.stats.completed;
    benchmark::DoNotOptimize(result.fingerprint);
  }
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(completed), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_serve_cold)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

// Hand-rolled DASCHED_BENCH_MAIN so the stream-shape flags exist and the
// identity + coverage verdicts gate the exit code.
int main(int argc, char** argv) {
  if (!::dasched::bench::consume_report_flags(&argc, argv)) return 2;
  int write = 1;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = need("--duration")) {
      if (!::dasched::parse_flag_u64(v, &::dasched::g_duration) ||
          ::dasched::g_duration == 0) {
        std::fprintf(stderr, "--duration: invalid tick count '%s'\n", v);
        return 2;
      }
    } else if (const char* vt = need("--tenants")) {
      if (!::dasched::parse_flag_u32(vt, &::dasched::g_tenants) ||
          ::dasched::g_tenants == 0) {
        std::fprintf(stderr, "--tenants: invalid tenant count '%s'\n", vt);
        return 2;
      }
    } else if (const char* vs = need("--arrival-seed")) {
      if (!::dasched::parse_flag_u64(vs, &::dasched::g_arrival_seed)) {
        std::fprintf(stderr, "--arrival-seed: invalid seed '%s'\n", vs);
        return 2;
      }
    } else if (const char* vr = need("--max-rate")) {
      if (!::dasched::parse_flag_double(vr, &::dasched::g_max_rate) ||
          !(::dasched::g_max_rate > 0.0)) {
        std::fprintf(stderr, "--max-rate: invalid rate '%s'\n", vr);
        return 2;
      }
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
  return (::dasched::g_identity_ok && ::dasched::g_static_ok) ? 0 : 3;
}
