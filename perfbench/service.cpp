// service_stream: SchedulerDaemon::serve over seeded job streams -- the
// only workload that goes through admit -> profile (analysis) -> compose ->
// verify gate -> execute, with a fresh Executor per cohort. The loop is
// closed: one caller hands the whole pre-generated stream to serve(),
// arrivals follow the simulated clock, and serve() returns at quiescence.
//
// Each stream has more distinct specs than the 64-entry profile cache holds,
// so about half of the lookups miss and the static analyzer profiles them:
// a cache or analyzer change shows here, while the flood workloads bypass
// this code entirely.
//
// A run serves a batch of kStreams streams, each on its own graph, all drawn
// from the seed: one stream's message count swings by ~20% from seed to
// seed, the batch's total by ~6%.
#include <algorithm>
#include <memory>
#include <set>

#include "analysis/analyzer.hpp"
#include "bench.hpp"
#include "graph/generators.hpp"
#include "service/daemon.hpp"
#include "service/job_stream.hpp"

namespace perfbench {
namespace {

using namespace dasched;

// n is cut from 1000 so one serve() takes ~0.3 s: a run serves each stream
// about fifteen times, and the fastest of them finds the host's quiet spells.
constexpr NodeId kNodes = 300;
constexpr double kDegree = 6.0;
constexpr double kArrivalRate = 2.0;  // jobs per tick
constexpr std::uint32_t kTenants = 16;
constexpr std::uint32_t kSpecsPerTenant = 8;
constexpr std::uint64_t kDuration = 600;  // ticks: ~1200 jobs
constexpr std::size_t kStreams = 6;

struct Instance {
  std::vector<std::unique_ptr<Graph>> graphs;  // graphs[j] serves streams[j]
  std::vector<std::vector<service::JobRequest>> streams;
  service::ServiceResult warmup;  // the first stream's warm-up serve
};

service::ServiceResult serve(const Graph& g, const std::vector<service::JobRequest>& stream,
                             std::uint32_t threads, TelemetrySink* sink) {
  service::ServiceConfig cfg;
  cfg.num_threads = threads;
  cfg.telemetry = sink;
  service::SchedulerDaemon daemon(g, cfg);
  return daemon.serve(stream);
}

std::unique_ptr<Instance> setup(const Options& opt, Recorder& rec, Report& out) {
  auto inst = std::make_unique<Instance>();
  const std::uint64_t t0 = now_ns();
  out.sample("graph_gen_s", timed(rec, "graph", "gen", [&] {
               for (std::size_t j = 0; j < kStreams; ++j) {
                 Rng rng(derive_seed(opt.seed, 10 + j));
                 inst->graphs.push_back(std::make_unique<Graph>(
                     make_gnp_connected(kNodes, kDegree / kNodes, rng)));
               }
             }));
  out.sample("stream_gen_s", timed(rec, "service", "stream_gen", [&] {
               for (std::size_t j = 0; j < kStreams; ++j) {
                 service::JobStreamConfig scfg;
                 scfg.arrival_rate = kArrivalRate;
                 scfg.arrival_seed = derive_seed(opt.seed, 3 + j);
                 scfg.tenants = kTenants;
                 scfg.duration = kDuration;
                 scfg.specs_per_tenant = kSpecsPerTenant;
                 inst->streams.push_back(service::generate_job_stream(scfg, kNodes));
               }
             }));
  out.sample("warmup_s", timed(rec, "service", "warmup", [&] {
               inst->warmup = serve(*inst->graphs[0], inst->streams[0], 0, nullptr);
             }));
  out.sample("setup_s", static_cast<double>(now_ns() - t0) * 1e-9);
  return inst;
}

/// Failures are rejected jobs plus admitted jobs that did not complete, over
/// arrivals; every executed cohort must have passed the verifier gate.
void check_result(const service::ServiceResult& r, std::uint64_t reference_fp,
                  Report& out) {
  const auto& s = r.stats;
  out.attempted += s.arrived;
  out.failed += s.rejected() + (s.admitted - s.completed);
  out.check("jobs_completed", s.rejected() == 0 && s.admitted == s.completed);
  out.check("gate_covers_executions", s.gate_runs >= s.executions);
  out.check("service_identity", r.fingerprint == reference_fp);
}

}  // namespace

void run_service_stream(const Options& opt, Recorder& rec, Report& out) {
  std::unique_ptr<Instance> inst;
  // Each stream's first serial serve: every later serve of it, serial or
  // threaded, must reproduce its fingerprint.
  std::vector<service::ServiceResult> reference(kStreams);
  std::vector<bool> have_reference(kStreams, false);
  std::uint64_t warmup_fp = 0;
  int setups = 0;
  // Every set-up rebuilds the instance from the seed; its warm-up serve must
  // reproduce the first one's, and the first stream's measured serves.
  auto resetup = [&] {
    inst.reset();
    rec.id = static_cast<std::uint64_t>(setups);
    inst = setup(opt, rec, out);
    if (setups == 0) warmup_fp = inst->warmup.fingerprint;
    out.check("setup_identity", inst->warmup.fingerprint == warmup_fp);
    ++setups;
  };
  if (opt.trace) rec.open_window();
  resetup();

  if (opt.trace) {
    // The analyzer over the stream's distinct specs, timed from outside: the
    // work a cold cache asks of the profile stage.
    std::set<std::uint64_t> seen;
    std::vector<std::unique_ptr<DistributedAlgorithm>> algos;
    for (const auto& job : inst->streams[0]) {
      if (seen.insert(job.spec.fingerprint()).second) {
        algos.push_back(service::make_algorithm(job.spec));
      }
    }
    double analyze_s = 0;
    for (const auto& a : algos) {
      analyze_s += timed(rec, "analysis", "analyze",
                         [&] { analysis::analyze(*inst->graphs[0], *a); });
    }
    out.values["analyze_s"] = analyze_s;
    rec.close_window();
  }

  std::uint64_t serve_id = kSetupReps;
  std::uint64_t traced_serves = 0;
  double profile_s = 0;
  // One iteration serves the next stream of the batch. The daemon's executor
  // runs serially, as the workload defines; a stream's first serve is also
  // repeated untimed at nproc workers, which must not change its result.
  auto measure = [&](double seconds, const std::string& prefix, bool traced) {
    Budget budget(seconds, kStreams);
    for (std::size_t j = 0; !budget.done(); j = (j + 1) % kStreams) {
      if (setup_due(budget, setups)) resetup();
      const Graph& g = *inst->graphs[j];
      const auto& stream = inst->streams[j];
      rec.id = serve_id++;
      service::ServiceResult serial;
      const double ts = timed(rec, "service", "serve_serial", [&] {
        serial = serve(g, stream, 0, traced ? &rec : nullptr);
      });
      if (!have_reference[j]) {
        reference[j] = serial;
        have_reference[j] = true;
        check_result(serve(g, stream, opt.workers, nullptr), reference[j].fingerprint, out);
        if (j == 0) out.check("setup_identity", serial.fingerprint == warmup_fp);
      }
      out.sample(prefix + "serve_key", static_cast<double>(j));
      out.sample(prefix + "serve_serial_s", ts);
      check_result(serial, reference[j].fingerprint, out);
      if (traced) {
        profile_s += serial.stats.profile_seconds;
        ++traced_serves;
      }
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

  // Batch totals (peak queue depth: the batch maximum) over the streams'
  // reference serves.
  auto& v = out.values;
  v["traced_serves"] = static_cast<double>(traced_serves);
  v["profile_s"] = profile_s;
  for (const auto& r : reference) {
    const auto& s = r.stats;
    for (const auto& o : r.outcomes) {
      if (o.completed) out.latency_ticks.push_back(o.latency_ticks);
    }
    v["completed"] += static_cast<double>(s.completed);
    v["messages"] += static_cast<double>(s.total_messages);
    v["big_rounds"] += static_cast<double>(s.total_big_rounds);
    v["cache_hits"] += static_cast<double>(s.cache.hits);
    v["cache_misses"] += static_cast<double>(s.cache.misses);
    v["profiles_static"] += static_cast<double>(s.profiles_static);
    v["profiles_executed"] += static_cast<double>(s.profiles_executed);
    v["executions"] += static_cast<double>(s.executions);
    v["deferrals"] += static_cast<double>(s.deferrals);
    v["gate_rejections"] += static_cast<double>(s.gate_rejections);
    v["requeues_verify"] += static_cast<double>(s.requeues_verify);
    v["peak_queue_depth"] =
        std::max(v["peak_queue_depth"], static_cast<double>(s.peak_queue_depth));
  }
}

}  // namespace perfbench
