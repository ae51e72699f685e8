// E16 -- scheduling-as-a-service: sustained multi-tenant arrival ladder.
//
// The batch experiments (E1..E15) schedule a fixed set of algorithms once.
// E16 measures the online regime of docs/SERVICE.md: a seeded Poisson job
// stream served to quiescence by the SchedulerDaemon -- epoch-wise
// incremental composition, the static verifier gating every composed
// schedule, a solo-profile cache fed by repeat tenants, and congestion
// backpressure.
//
//   E16.a  the arrival ladder: for each arrival rate, serve the same
//          multi-tenant stream serially and at 2 and 4 executor threads.
//          Reported per rung: stream size, admissions/completions/rejections,
//          deferral count, cache hits and hit rate, schedule-latency p50/p99
//          (in ticks of the simulated clock), serial wall time, jobs/sec and
//          messages/sec, whether every admitted job passed the verifier gate
//          and completed with solo-equal outputs ("verified"), and whether
//          all thread counts produced bit-identical service trajectories
//          ("identical", compared by service fingerprint and the
//          deterministic dasched.service.v1 document).
//
// The identity and verified verdicts are load-bearing: main() exits 3 if any
// rung fails either one, and CI runs the ladder as a Release smoke test with
// exactly that contract.
//
// Flags (beyond bench_common's --report/--trace/--threads/--profile):
//   --duration TICKS   arrival window per rung (default 96)
//   --tenants T        tenants per stream (default 4)
//   --arrival-seed S   stream seed (default 1)
//   --max-rate R       drop ladder rungs with arrival rate > R
#include "bench_common.hpp"

#include <chrono>

#include "graph/generators.hpp"
#include "service/daemon.hpp"
#include "service/job_stream.hpp"

namespace dasched {
namespace {

// Ladder-wide stream shape, adjustable from the command line.
std::uint64_t g_duration = 96;
std::uint32_t g_tenants = 4;
std::uint64_t g_arrival_seed = 1;
double g_max_rate = 1e9;
// Sticky verdicts consumed by main(): any rung that fails identity or
// verification flips these and the process exits non-zero.
bool g_identity_ok = true;
bool g_verified_ok = true;

constexpr NodeId kNodes = 300;
constexpr double kArrivalLadder[] = {0.25, 0.5, 1.0, 2.0};

service::ServiceResult serve_once(const Graph& g, const std::vector<service::JobRequest>& stream,
                                  std::uint32_t threads) {
  service::ServiceConfig cfg;
  cfg.delay_seed = 7;
  cfg.epoch_ticks = 8;
  cfg.cache_capacity = 64;
  cfg.num_threads = threads;
  service::SchedulerDaemon daemon(g, cfg);
  return daemon.serve(stream);
}

void run_arrival_ladder() {
  Rng rng(16001);
  const Graph g = make_gnp_connected(kNodes, 6.0 / kNodes, rng);

  Table table("E16.a -- service arrival ladder (n = " + std::to_string(kNodes) +
              ", tenants = " + std::to_string(g_tenants) + ", duration = " +
              std::to_string(g_duration) + ")");
  table.set_header({"rate", "jobs", "admitted", "completed", "rejected",
                    "deferrals", "cache hits", "hit rate", "p50", "p99",
                    "serial ms", "jobs/s", "messages/s", "verified", "identical"});

  for (const double rate : kArrivalLadder) {
    if (rate > g_max_rate) continue;
    service::JobStreamConfig stream_cfg;
    stream_cfg.arrival_rate = rate;
    stream_cfg.arrival_seed = g_arrival_seed;
    stream_cfg.tenants = g_tenants;
    stream_cfg.duration = g_duration;
    const auto stream = service::generate_job_stream(stream_cfg, g.num_nodes());

    service::ServiceResult serial;
    double serial_ms = 0.0;
    bool rung_identical = true;
    for (const std::uint32_t threads : {0u, 2u, 4u}) {
      const auto t0 = std::chrono::steady_clock::now();
      service::ServiceResult result = serve_once(g, stream, threads);
      const auto t1 = std::chrono::steady_clock::now();
      if (threads == 0) {
        serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        serial = std::move(result);
      } else {
        // The full deterministic trajectory must agree: digest plus the
        // timing-free service document, byte for byte.
        rung_identical = rung_identical &&
                         result.fingerprint == serial.fingerprint &&
                         result.to_json(false) == serial.to_json(false);
      }
    }
    const auto& stats = serial.stats;
    // Every execution went through the admission gate, and every admitted
    // job finished with solo-equal outputs.
    const bool verified = stats.gate_runs >= stats.executions &&
                          stats.admitted == stats.completed;
    g_identity_ok = g_identity_ok && rung_identical;
    g_verified_ok = g_verified_ok && verified;

    const double wall_s = serial_ms / 1000.0;
    table.add_row(
        {Table::fmt(rate, 2), Table::fmt(stats.arrived), Table::fmt(stats.admitted),
         Table::fmt(stats.completed), Table::fmt(stats.rejected()),
         Table::fmt(stats.deferrals), Table::fmt(stats.cache.hits),
         Table::fmt(serial.cache_hit_rate(), 3),
         Table::fmt(serial.latency_p50), Table::fmt(serial.latency_p99),
         Table::fmt(serial_ms, 2),
         Table::fmt(wall_s > 0.0 ? static_cast<double>(stats.completed) / wall_s : 0.0, 1),
         Table::fmt(wall_s > 0.0 ? static_cast<double>(stats.total_messages) / wall_s
                                 : 0.0, 0),
         verified ? "yes" : "NO", rung_identical ? "yes" : "NO"});
  }
  bench::emit(table);
}

void print_tables() {
  bench::experiment_banner("E16 (service)",
                           "sustained multi-tenant job streams: incremental "
                           "composition, profile cache, verifier gate");
  run_arrival_ladder();
  if (!g_identity_ok) {
    std::cout << "IDENTITY FAILURE: threaded service trajectories diverged from serial\n";
  }
  if (!g_verified_ok) {
    std::cout << "VERIFICATION FAILURE: admitted jobs did not all verify and complete\n";
  }
}

void bm_serve_stream(benchmark::State& state) {
  Rng rng(16002);
  static const Graph g = make_gnp_connected(200, 6.0 / 200, rng);
  service::JobStreamConfig stream_cfg;
  stream_cfg.arrival_rate = 0.5;
  stream_cfg.arrival_seed = 2;
  stream_cfg.tenants = 4;
  stream_cfg.duration = 48;
  static const auto stream = service::generate_job_stream(stream_cfg, g.num_nodes());
  std::uint64_t completed = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto result = serve_once(g, stream, static_cast<std::uint32_t>(state.range(0)));
    completed += result.stats.completed;
    messages += result.stats.total_messages;
    benchmark::DoNotOptimize(result.fingerprint);
  }
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(completed), benchmark::Counter::kIsRate);
  state.counters["messages/s"] =
      benchmark::Counter(static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_serve_stream)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dasched

// Hand-rolled DASCHED_BENCH_MAIN so the stream-shape flags exist and the
// identity + verification verdicts gate the exit code.
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
  return (::dasched::g_identity_ok && ::dasched::g_verified_ok) ? 0 : 3;
}
