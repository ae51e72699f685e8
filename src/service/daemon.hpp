// SchedulerDaemon: scheduling-as-a-service on a simulated clock.
//
// The paper's Theorem 1.1 schedules a *fixed* batch of k algorithms: draw one
// random start delay per algorithm, run everything in big-rounds of
// Theta(log n) physical rounds, and w.h.p. no (big-round, edge) cell exceeds
// its phase budget. The daemon extends that regime to an *online* setting --
// jobs arrive continuously on a simulated tick clock, tagged by tenant -- by
// keeping the delay trick but applying it incrementally:
//
//   admission   Arrivals enter a bounded queue (overflow is an immediate
//               kQueueFull rejection -- the outermost backpressure valve).
//   compose     At every epoch boundary the daemon drains the queue in
//               fairness order (fewest-admitted tenant first, then arrival,
//               then job id) and folds each job into the live composite
//               schedule: the job draws a fresh random delay from its own
//               seed stream while already-accepted jobs keep theirs --
//               re-randomizing only the newcomer preserves the Theorem 1.1
//               congestion argument for the union. A job whose solo loads
//               would push any (big-round, edge) cell over the phase budget
//               is deferred to the next epoch (bounded retries, then a
//               kCongestionBudget rejection: sustained-overload backpressure).
//   profile     Folding needs the job's solo communication pattern. Profiles
//               are cached across jobs and epochs keyed on (program
//               fingerprint, graph fingerprint) -- see profile_cache.hpp --
//               so repeat tenants skip their solo runs entirely.
//   gate        Every composed schedule passes the static verifier
//               (verify::check_schedule) *before* execution. Cached profiles
//               are trusted data, not trusted truth: a stale or poisoned
//               entry surfaces here as an error finding attributed to the
//               offending job, which is then re-profiled from scratch and
//               requeued (and rejected kVerifyFailed if it fails again).
//               Each gate run is one check_schedule over verifier buffers
//               the daemon keeps for its life, and only a table whose
//               report is ok() goes on to execute: the daemon proves, the
//               engine runs.
//   execute     The proved cohort runs on the daemon's Executor (one per
//               daemon: its pool and arenas stay warm across cohorts).
//   collect     Per-job completion is checked against the solo ground truth,
//               and the execution fingerprint is folded into the service
//               fingerprint.
//
// Everything is driven by seeds and the simulated clock: a (graph, config,
// stream) triple produces bit-identical ServiceResults -- outcomes, stats,
// fingerprint -- for every thread count (the engine's identity
// contract lifts to the service layer). See docs/SERVICE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "congest/executor.hpp"
#include "graph/graph.hpp"
#include "service/job_stream.hpp"
#include "service/profile_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/schedule_verifier.hpp"

namespace dasched::service {

/// Terminal rejection reasons (a deferred job that later completes is not
/// rejected; its outcome records the deferral count instead).
enum class RejectCode : std::uint8_t {
  kNone = 0,
  kQueueFull,         // admission queue at capacity on arrival
  kCongestionBudget,  // offered congestion exceeded the phase budget in more
                      // than max_deferrals consecutive composes
  kVerifyFailed,      // verifier gate rejected the job even after re-profiling
};

struct ServiceConfig {
  /// Physical rounds per big-round. 0 derives ceil(log2 n), the paper's
  /// Theta(log n) phase.
  std::uint32_t phase_len = 0;
  /// Per-(big-round, directed edge) load budget for admission and the
  /// verifier gate. 0 derives 2 * phase_len.
  std::uint32_t congestion_budget = 0;
  /// Seed stream for per-job delays (combined with job id and epoch).
  std::uint64_t delay_seed = 5;
  /// Ticks between compose points while arrivals are still flowing. Once the
  /// stream drains, the daemon composes every tick until the queue is empty.
  std::uint64_t epoch_ticks = 8;
  std::size_t cache_capacity = 64;
  /// Admission-queue bound; arrivals beyond it are rejected kQueueFull.
  std::size_t max_queue = 256;
  /// Consecutive budget-overflow deferrals before a kCongestionBudget reject.
  std::uint32_t max_deferrals = 4;
  /// Executor threading (0/1 = serial). Never affects results -- the service
  /// inherits the engine's bit-identity contract.
  std::uint32_t num_threads = 0;
  /// Profile cache-miss jobs from the static pattern analyzer (src/analysis)
  /// when their footprint yields an exact certificate with outputs, instead
  /// of solo-executing them -- near-free cold-start admission. The verifier
  /// gate still checks every composed schedule and execution still compares
  /// against the (now derived) solo outputs, so a wrong certificate is caught
  /// exactly like a poisoned cache entry. Never affects results: certificates
  /// are cell-for-cell equal to solo runs (tests/test_analysis.cpp), so
  /// fingerprints match the executed-profiling path bit for bit.
  bool static_admission = true;
  /// Optional sink (borrowed). Emits service.* counters (arrivals, admits,
  /// rejections by code, deferrals, cache traffic, gate runs) plus the
  /// executor's and verifier's own instrumentation.
  TelemetrySink* telemetry = nullptr;
};

/// Per-job trajectory through the service, indexed by job id in
/// ServiceResult::outcomes.
struct JobOutcome {
  JobRequest request;
  bool admitted = false;    // survived the gate and executed
  bool completed = false;   // executed to completion with solo-equal outputs
  RejectCode rejected = RejectCode::kNone;
  std::uint32_t deferrals = 0;  // compose passes that pushed the job back
  bool cache_hit = false;       // profile came from the cache
  std::uint32_t delay = 0;      // big-round start delay of the admitting epoch
  std::uint64_t epoch = 0;      // compose pass that admitted the job
  std::uint64_t finish_tick = 0;
  std::uint64_t latency_ticks = 0;  // finish_tick - arrival_tick
};

struct ServiceStats {
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_congestion = 0;
  std::uint64_t rejected_verify = 0;
  std::uint64_t deferrals = 0;       // budget-overflow defer events
  std::uint64_t requeues_verify = 0; // gate-triggered re-profile requeues
  std::uint64_t composes = 0;        // compose passes over a non-empty queue
  std::uint64_t executions = 0;      // cohorts that reached the engine
  std::uint64_t gate_runs = 0;
  std::uint64_t gate_rejections = 0;
  std::uint64_t total_big_rounds = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t ticks = 0;
  /// Cache-miss profiles synthesized from static certificates (no execution)
  /// vs solo-executed. static + executed == cache misses served.
  std::uint64_t profiles_static = 0;
  std::uint64_t profiles_executed = 0;
  CacheStats cache;
  /// Wall-clock time inside serve(). Nondeterministic: excluded from the
  /// fingerprint and from to_json(false).
  double wall_seconds = 0.0;
  /// Wall-clock time spent acquiring cache-miss profiles (the cold-start
  /// admission cost bench E17 measures). Nondeterministic, like wall_seconds.
  double profile_seconds = 0.0;
  /// The rest of the epoch split, timed per compose pass and per cohort
  /// (never per job); disjoint from profile_seconds and from each other, so
  /// the five sum to at most wall_seconds. compose: fairness sort and the
  /// load-grid fold, profiling excluded. gate: building each candidate
  /// cohort's problem and schedule and proving it. execute: the engine run
  /// of the proved table. collect: the fingerprint fold and the per-job
  /// completion check. Nondeterministic.
  double compose_seconds = 0.0;
  double gate_seconds = 0.0;
  double execute_seconds = 0.0;
  double collect_seconds = 0.0;

  std::uint64_t rejected() const {
    return rejected_queue_full + rejected_congestion + rejected_verify;
  }
};

struct ServiceResult {
  std::vector<JobOutcome> outcomes;  // indexed by job id
  ServiceStats stats;
  /// Nearest-rank percentiles of latency_ticks over completed jobs.
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p90 = 0;
  std::uint64_t latency_p99 = 0;
  double latency_mean_ticks = 0.0;
  /// End-to-end digest: every epoch's execution fingerprint plus every job's
  /// outcome fields (wall time excluded). Equal fingerprints mean the whole
  /// service trajectory -- admissions, deferrals, delays, outputs -- agreed.
  std::uint64_t fingerprint = 0;

  double jobs_per_sec() const {
    return stats.wall_seconds > 0.0
               ? static_cast<double>(stats.completed) / stats.wall_seconds
               : 0.0;
  }
  double cache_hit_rate() const {
    const std::uint64_t total = stats.cache.hits + stats.cache.misses;
    return total > 0 ? static_cast<double>(stats.cache.hits) / static_cast<double>(total)
                     : 0.0;
  }

  /// The `dasched.service.v1` JSON object (RunReport::set_section_json
  /// payload). With include_timing=false the document is a pure function of
  /// the run's deterministic state -- byte-identical across repeats and
  /// thread counts; include_timing=true adds wall_seconds and the derived
  /// jobs/sec and messages/sec rates.
  std::string to_json(bool include_timing = true) const;
};

class SchedulerDaemon {
 public:
  /// The graph is borrowed and must outlive the daemon.
  explicit SchedulerDaemon(const Graph& g, ServiceConfig cfg = {});
  // The engine holds the gate's address.
  SchedulerDaemon(const SchedulerDaemon&) = delete;
  SchedulerDaemon& operator=(const SchedulerDaemon&) = delete;

  /// Runs the full stream to quiescence: every job ends admitted+executed or
  /// rejected with a reason. `stream` must be sorted by (arrival_tick,
  /// job_id) with dense job ids, as generate_job_stream produces.
  ServiceResult serve(const std::vector<JobRequest>& stream);

  const ProfileCache& cache() const { return cache_; }
  /// Mutable cache access for administration (pre-warming, manual
  /// invalidation) and for tests that inject stale entries to exercise the
  /// verifier gate. The daemon never needs this itself.
  ProfileCache& mutable_cache() { return cache_; }
  std::uint32_t phase_len() const { return phase_len_; }
  std::uint32_t congestion_budget() const { return budget_; }

 private:
  struct Pending {
    JobRequest request;
    std::uint32_t deferrals = 0;
    /// Set after a gate rejection: skip the cache read and re-profile.
    bool force_profile = false;
  };
  struct Admitted {
    Pending pending;
    // By value, so an eviction underneath cannot dangle it; the solo run
    // inside is shared with the cache entry, not copied.
    JobProfile profile;
    ProfileKey key;
    bool cache_hit = false;
    std::uint32_t delay = 0;
  };

  /// One compose pass at the end of `tick`: fairness-sort the queue, fold
  /// each job into the live load grid (defer on overflow), gate the composed
  /// schedule, execute the survivors.
  void compose_and_execute(std::uint64_t tick, ServiceResult& result);

  /// Obtains the job's profile (cache or fresh solo run) and whether it hit.
  Admitted acquire_profile(Pending pending);

  void run_cohort(std::vector<Admitted> cohort, std::uint64_t tick,
                  ServiceResult& result);

  void count(std::string_view name, std::uint64_t delta = 1);

  const Graph& graph_;
  ServiceConfig cfg_;
  std::uint32_t phase_len_;
  std::uint32_t budget_;
  std::uint64_t graph_fp_;
  ProfileCache cache_;
  std::vector<Pending> queue_;
  // Fairness state: jobs admitted per tenant so far (ordered map -- the
  // compose sort iterates it).
  std::map<std::uint32_t, std::uint64_t> tenant_admitted_;
  std::uint64_t epoch_ = 0;  // compose-pass index (delay seed component)
  // The gate's verifier buffers and the engine, one each for the daemon's
  // life, so both stay warm across cohorts.
  verify::ProofScratch proof_scratch_;
  Executor executor_;
  // compose_and_execute's load grid, rows x directed edges, kept across
  // compose passes so its storage is allocated once.
  std::vector<std::uint32_t> grid_;
  ServiceStats stats_;
  std::uint64_t fp_state_;  // running FNV-1a fold (util/fingerprint.hpp)
};

}  // namespace dasched::service
