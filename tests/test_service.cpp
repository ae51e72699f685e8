// Tests for the scheduling service (src/service/): the fingerprint utility,
// seeded job streams, the solo-profile cache, the daemon's serve loop
// (fairness, backpressure, verifier gating, thread-count identity, stage
// seconds), the verifier's adopted-profile consistency check, pinned
// fingerprints of fixed streams, and the service flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "algos/aggregate.hpp"
#include "congest/schedule_table.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "json_reader.hpp"
#include "sched/problem.hpp"
#include "service/daemon.hpp"
#include "service/job_stream.hpp"
#include "service/profile_cache.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_report.hpp"
#include "util/fingerprint.hpp"
#include "util/flags.hpp"
#include "verify/schedule_verifier.hpp"

namespace dasched {
namespace {

using service::JobProfile;
using service::JobRequest;
using service::JobSpec;
using service::JobStreamConfig;
using service::ProfileCache;
using service::ProfileKey;
using service::RejectCode;
using service::SchedulerDaemon;
using service::ServiceConfig;
using service::ServiceResult;

Graph test_graph(NodeId n = 80, std::uint64_t seed = 7) {
  Rng rng(seed);
  return make_gnp_connected(n, 6.0 / n, rng);
}

JobStreamConfig stream_config(double rate = 0.5, std::uint64_t seed = 3,
                              std::uint32_t tenants = 3, std::uint64_t duration = 24) {
  JobStreamConfig cfg;
  cfg.arrival_rate = rate;
  cfg.arrival_seed = seed;
  cfg.tenants = tenants;
  cfg.duration = duration;
  return cfg;
}

// ---------------------------------------------------------------------------
// Fingerprint utility (util/fingerprint.hpp)
// ---------------------------------------------------------------------------

TEST(Fingerprint, EmptyDigestIsOffsetBasis) {
  EXPECT_EQ(Fingerprint{}.digest(), kFnvOffsetBasis);
}

TEST(Fingerprint, MixMatchesManualFnv1a) {
  // Each 64-bit word hashed byte-wise little-end first: the exact loop the
  // golden output hashes in test_fault.cpp were computed with. The words
  // cover zero, every significant-byte count and its boundaries, and zero
  // bytes below a nonzero one, so the folded zero-byte tail is checked.
  std::vector<std::uint64_t> words = {0, 1, 0xff, 0x0123456789abcdefULL, ~std::uint64_t{0},
                                      0x8000000000000000ULL, 0x00ff0000000000ffULL};
  for (int b = 1; b < 8; ++b) {
    const std::uint64_t top = std::uint64_t{1} << (8 * b);
    words.insert(words.end(), {top - 1, top, top + 1, top << 7});
  }
  std::uint64_t chained = kFnvOffsetBasis;
  Fingerprint fp;
  for (const std::uint64_t x : words) {
    std::uint64_t h = kFnvOffsetBasis;
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= kFnvPrime;
      chained ^= (x >> (8 * i)) & 0xff;
      chained *= kFnvPrime;
    }
    EXPECT_EQ(fnv1a_mix(kFnvOffsetBasis, x), h) << std::hex << x;
    fp.mix(x);
  }
  EXPECT_EQ(fp.digest(), chained);
}

TEST(Fingerprint, MixIsOrderSensitive) {
  EXPECT_NE(Fingerprint{}.mix(1).mix(2).digest(), Fingerprint{}.mix(2).mix(1).digest());
}

TEST(Fingerprint, MixBytesSeparatesConcatenations) {
  // The length prefix keeps ("ab", "c") distinct from ("a", "bc").
  EXPECT_NE(Fingerprint{}.mix_bytes("ab").mix_bytes("c").digest(),
            Fingerprint{}.mix_bytes("a").mix_bytes("bc").digest());
}

TEST(Fingerprint, GraphFingerprintStableAndShapeSensitive) {
  const Graph a = test_graph(60, 11);
  const Graph b = test_graph(60, 11);
  const Graph c = test_graph(60, 12);
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(b));
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(c));
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(test_graph(61, 11)));
}

// ---------------------------------------------------------------------------
// Job specs and streams
// ---------------------------------------------------------------------------

TEST(JobStream, SpecFingerprintSeparatesEveryField) {
  JobSpec base;
  base.kind = JobSpec::Kind::kBfs;
  base.root = 3;
  base.radius = 2;
  base.payload_seed = 17;
  JobSpec other = base;
  EXPECT_EQ(base.fingerprint(), other.fingerprint());
  other.kind = JobSpec::Kind::kBroadcast;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.root = 4;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.radius = 3;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.payload_seed = 18;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
}

TEST(JobStream, GenerationIsDeterministicAndSeedSensitive) {
  const auto cfg = stream_config();
  const auto a = service::generate_job_stream(cfg, 80);
  const auto b = service::generate_job_stream(cfg, 80);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_id, b[i].job_id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].arrival_tick, b[i].arrival_tick);
    EXPECT_EQ(a[i].spec, b[i].spec);
  }
  auto reseeded = cfg;
  reseeded.arrival_seed = cfg.arrival_seed + 1;
  const auto c = service::generate_job_stream(reseeded, 80);
  EXPECT_TRUE(a.size() != c.size() ||
              !std::equal(a.begin(), a.end(), c.begin(),
                          [](const JobRequest& x, const JobRequest& y) {
                            return x.spec == y.spec && x.tenant == y.tenant &&
                                   x.arrival_tick == y.arrival_tick;
                          }));
}

TEST(JobStream, ShapeInvariants) {
  const auto cfg = stream_config(1.0, 5, 4, 40);
  const auto stream = service::generate_job_stream(cfg, 80);
  ASSERT_FALSE(stream.empty());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].job_id, i);  // dense ids
    if (i > 0) {
      EXPECT_GE(stream[i].arrival_tick, stream[i - 1].arrival_tick);
    }
    EXPECT_LT(stream[i].tenant, cfg.tenants);
    EXPECT_LT(stream[i].arrival_tick, cfg.duration);
    EXPECT_LT(stream[i].spec.root, 80u);
    EXPECT_EQ(stream[i].spec.radius, cfg.radius);
    // Every spec is one of the tenant's recurring pool entries.
    bool in_pool = false;
    for (std::uint32_t slot = 0; slot < cfg.specs_per_tenant; ++slot) {
      in_pool = in_pool ||
                stream[i].spec == service::tenant_spec(cfg, stream[i].tenant, slot, 80);
    }
    EXPECT_TRUE(in_pool) << "job " << i;
  }
}

TEST(JobStream, ArrivalCountScalesWithRate) {
  const auto slow = service::generate_job_stream(stream_config(0.25, 9, 2, 200), 40);
  const auto fast = service::generate_job_stream(stream_config(2.0, 9, 2, 200), 40);
  // Poisson(0.25 * 200) = 50 expected vs Poisson(2 * 200) = 400 expected;
  // even loose bounds separate them decisively.
  EXPECT_GT(fast.size(), 2 * slow.size());
}

TEST(JobStream, RecurringSpecsRepeatAcrossTheStream) {
  const auto stream = service::generate_job_stream(stream_config(1.0, 3, 2, 48), 80);
  std::map<std::uint64_t, int> by_fingerprint;
  for (const auto& job : stream) ++by_fingerprint[job.spec.fingerprint()];
  // 2 tenants x 2 specs = at most 4 distinct programs; with dozens of
  // arrivals every program repeats.
  EXPECT_LE(by_fingerprint.size(), 4u);
  for (const auto& [fp, uses] : by_fingerprint) EXPECT_GT(uses, 1) << fp;
}

TEST(JobStream, InvalidConfigsDie) {
  EXPECT_DEATH((void)service::generate_job_stream(stream_config(0.0), 80), "rate");
  auto no_tenants = stream_config();
  no_tenants.tenants = 0;
  EXPECT_DEATH((void)service::generate_job_stream(no_tenants, 80), "tenant");
  auto no_duration = stream_config();
  no_duration.duration = 0;
  EXPECT_DEATH((void)service::generate_job_stream(no_duration, 80), "duration");
}

// ---------------------------------------------------------------------------
// Profile cache
// ---------------------------------------------------------------------------

JobProfile dummy_profile(std::uint32_t rounds) {
  JobProfile p;
  p.rounds = rounds;
  return p;
}

TEST(ProfileCacheTest, HitAndMissCounting) {
  ProfileCache cache(4);
  const ProfileKey key{1, 2};
  EXPECT_EQ(cache.find(key), nullptr);
  cache.insert(key, dummy_profile(3));
  const JobProfile* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rounds, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProfileCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  ProfileCache cache(2);
  cache.insert(ProfileKey{1, 0}, dummy_profile(1));
  cache.insert(ProfileKey{2, 0}, dummy_profile(2));
  // Touch key 1 so key 2 is the LRU victim.
  ASSERT_NE(cache.find(ProfileKey{1, 0}), nullptr);
  cache.insert(ProfileKey{3, 0}, dummy_profile(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.find(ProfileKey{1, 0}), nullptr);
  EXPECT_EQ(cache.find(ProfileKey{2, 0}), nullptr);  // evicted
  EXPECT_NE(cache.find(ProfileKey{3, 0}), nullptr);
}

TEST(ProfileCacheTest, EraseCountsInvalidationsOnlyWhenPresent) {
  ProfileCache cache(2);
  cache.insert(ProfileKey{1, 0}, dummy_profile(1));
  cache.erase(ProfileKey{9, 9});
  EXPECT_EQ(cache.stats().invalidations, 0u);
  cache.erase(ProfileKey{1, 0});
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProfileCacheTest, ZeroCapacityDisablesCaching) {
  ProfileCache cache(0);
  cache.insert(ProfileKey{1, 0}, dummy_profile(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(ProfileKey{1, 0}), nullptr);
}

TEST(ProfileCacheTest, InsertReplacesExistingKey) {
  ProfileCache cache(2);
  cache.insert(ProfileKey{1, 0}, dummy_profile(1));
  cache.insert(ProfileKey{1, 0}, dummy_profile(7));
  EXPECT_EQ(cache.size(), 1u);
  const JobProfile* p = cache.find(ProfileKey{1, 0});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->rounds, 7u);
}

// ---------------------------------------------------------------------------
// ScheduleProblem::adopt_solo and the verifier's profile-consistency gate
// ---------------------------------------------------------------------------

TEST(AdoptSolo, AdoptedProfilesServeAsGroundTruth) {
  const Graph g = test_graph();
  const JobSpec spec = service::tenant_spec(stream_config(), 0, 0, g.num_nodes());
  // Profile once, adopt into a fresh problem: run_solo() must be a no-op and
  // the verifier must accept a lockstep schedule.
  const auto solo = std::make_shared<const SoloRunResult>(
      solo_run(g, *service::make_algorithm(spec)));
  ScheduleProblem problem(g);
  problem.add(service::make_algorithm(spec));
  problem.adopt_solo({solo});
  EXPECT_TRUE(problem.solo_done());
  problem.run_solo();  // idempotent
  // Adopted, not copied: the problem reads the caller's instance.
  EXPECT_EQ(&problem.solo(0), solo.get());
  EXPECT_EQ(solo.use_count(), 2);
  const auto table = ScheduleTable::lockstep(problem.algorithm_ptrs(), g.num_nodes());
  EXPECT_TRUE(verify::check_schedule(problem, table).ok());
}

TEST(AdoptSoloDeathTest, ContractViolationsDie) {
  const Graph g = test_graph();
  const JobSpec spec = service::tenant_spec(stream_config(), 0, 0, g.num_nodes());
  const auto solo = std::make_shared<const SoloRunResult>(
      solo_run(g, *service::make_algorithm(spec)));
  {
    ScheduleProblem problem(g);
    problem.add(service::make_algorithm(spec));
    EXPECT_DEATH(problem.adopt_solo({solo, solo}), "one solo result per algorithm");
  }
  {
    ScheduleProblem problem(g);
    problem.add(service::make_algorithm(spec));
    problem.add(service::make_algorithm(spec));
    EXPECT_DEATH(problem.adopt_solo({solo, nullptr}), "null solo result");
  }
  {
    // The empty-set check is reachable only with zero algorithms (otherwise
    // the size check fires first).
    ScheduleProblem problem(g);
    EXPECT_DEATH(problem.adopt_solo({}), "empty");
  }
  {
    ScheduleProblem problem(g);
    problem.add(service::make_algorithm(spec));
    problem.adopt_solo({solo});
    EXPECT_DEATH(problem.adopt_solo({solo}), "already present");
  }
}

TEST(VerifierProfileConsistency, WrongGeometryProfileIsRejectedNotExecuted) {
  const Graph g = test_graph();
  JobSpec broadcast;
  broadcast.kind = JobSpec::Kind::kBroadcast;
  broadcast.root = 0;
  broadcast.radius = 3;
  // A profile recorded for a *different* program: aggregate over the same
  // graph runs 3r + 1 = 10 rounds, far past broadcast's 3.
  const auto stale =
      std::make_shared<const SoloRunResult>(solo_run(g, AggregateAlgorithm(0, 3, 42)));
  ScheduleProblem problem(g);
  problem.add(service::make_algorithm(broadcast));
  problem.adopt_solo({stale});
  const auto table = ScheduleTable::lockstep(problem.algorithm_ptrs(), g.num_nodes());
  const auto report = verify::check_schedule(problem, table);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeDimensionMismatch));
  // The finding names the offending algorithm -- the daemon's re-profile
  // path keys off this attribution.
  bool attributed = false;
  for (const auto& f : report.findings()) {
    attributed = attributed || (f.severity == verify::Severity::kError &&
                                f.location.alg == 0);
  }
  EXPECT_TRUE(attributed);
}

TEST(VerifierProfileConsistency, WrongEdgeCountProfileIsRejectedNotExecuted) {
  const Graph g = test_graph(80, 7);
  const Graph other = test_graph(80, 8);  // same n, different edges
  ASSERT_NE(g.num_directed_edges(), other.num_directed_edges());
  const JobSpec spec = service::tenant_spec(stream_config(), 1, 0, g.num_nodes());
  const auto foreign = std::make_shared<const SoloRunResult>(
      solo_run(other, *service::make_algorithm(spec)));
  ScheduleProblem problem(g);
  problem.add(service::make_algorithm(spec));
  problem.adopt_solo({foreign});
  const auto table = ScheduleTable::lockstep(problem.algorithm_ptrs(), g.num_nodes());
  // Must produce a structured finding -- not an out-of-bounds read in the
  // congestion accounting.
  const auto report = verify::check_schedule(problem, table);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeDimensionMismatch));
}

// ---------------------------------------------------------------------------
// SchedulerDaemon end to end
// ---------------------------------------------------------------------------

TEST(Daemon, ServesAStreamToQuiescence) {
  const Graph g = test_graph();
  const auto stream = service::generate_job_stream(stream_config(), g.num_nodes());
  ASSERT_FALSE(stream.empty());
  SchedulerDaemon daemon(g, {});
  const ServiceResult result = daemon.serve(stream);

  EXPECT_EQ(result.stats.arrived, stream.size());
  EXPECT_EQ(result.stats.admitted, result.stats.completed);
  EXPECT_EQ(result.stats.completed + result.stats.rejected(), stream.size());
  EXPECT_GE(result.stats.gate_runs, result.stats.executions);
  ASSERT_EQ(result.outcomes.size(), stream.size());
  for (const auto& out : result.outcomes) {
    if (out.completed) {
      EXPECT_TRUE(out.admitted);
      EXPECT_EQ(out.rejected, RejectCode::kNone);
      EXPECT_GT(out.finish_tick, out.request.arrival_tick);
      EXPECT_EQ(out.latency_ticks, out.finish_tick - out.request.arrival_tick);
    } else {
      EXPECT_NE(out.rejected, RejectCode::kNone);
    }
  }
  EXPECT_GT(result.latency_p99, 0u);
  EXPECT_GE(result.latency_p99, result.latency_p50);
}

TEST(Daemon, RepeatTenantsHitTheProfileCache) {
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 3, 2, 32), g.num_nodes());
  SchedulerDaemon daemon(g, {});
  const ServiceResult result = daemon.serve(stream);
  EXPECT_GT(result.stats.cache.hits, 0u);
  // At most 2 tenants x 2 specs distinct programs ever need profiling.
  EXPECT_LE(result.stats.cache.misses, 4u);
  EXPECT_GT(result.cache_hit_rate(), 0.5);
  bool some_hit_outcome = false;
  for (const auto& out : result.outcomes) some_hit_outcome |= out.cache_hit;
  EXPECT_TRUE(some_hit_outcome);
}

TEST(Daemon, BitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph(100, 5);
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 11, 3, 32), g.num_nodes());
  ServiceResult baseline;
  std::string baseline_json;
  for (const std::uint32_t threads : {0u, 1u, 2u, 4u}) {
    ServiceConfig cfg;
    cfg.num_threads = threads;
    SchedulerDaemon daemon(g, cfg);
    const ServiceResult result = daemon.serve(stream);
    if (threads == 0) {
      baseline = result;
      baseline_json = result.to_json(false);
      continue;
    }
    EXPECT_EQ(result.fingerprint, baseline.fingerprint) << "threads=" << threads;
    EXPECT_EQ(result.to_json(false), baseline_json) << "threads=" << threads;
    ASSERT_EQ(result.outcomes.size(), baseline.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      EXPECT_EQ(result.outcomes[i].completed, baseline.outcomes[i].completed);
      EXPECT_EQ(result.outcomes[i].delay, baseline.outcomes[i].delay);
      EXPECT_EQ(result.outcomes[i].finish_tick, baseline.outcomes[i].finish_tick);
    }
  }
}

TEST(Daemon, StaticAdmissionProfilesEveryMissWithoutExecution) {
  // Every stream spec (broadcast/bfs/aggregate) carries an exact footprint,
  // so with static admission on, no cache miss ever solo-executes.
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 9, 3, 32), g.num_nodes());
  SchedulerDaemon daemon(g, {});  // static_admission defaults to true
  const ServiceResult result = daemon.serve(stream);
  EXPECT_GT(result.stats.profiles_static, 0u);
  EXPECT_EQ(result.stats.profiles_executed, 0u);
  EXPECT_EQ(result.stats.profiles_static, result.stats.cache.misses);
  EXPECT_EQ(result.stats.admitted, result.stats.completed);
}

TEST(Daemon, StaticAdmissionOffExecutesEveryMiss) {
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 9, 3, 32), g.num_nodes());
  ServiceConfig cfg;
  cfg.static_admission = false;
  SchedulerDaemon daemon(g, cfg);
  const ServiceResult result = daemon.serve(stream);
  EXPECT_EQ(result.stats.profiles_static, 0u);
  EXPECT_GT(result.stats.profiles_executed, 0u);
  EXPECT_EQ(result.stats.profiles_executed, result.stats.cache.misses);
}

TEST(Daemon, StaticAdmissionIsBitIdenticalToExecutedProfiling) {
  // Certificates are cell-for-cell equal to solo runs, so how a profile was
  // produced must be invisible: outcomes, stats, and fingerprints agree.
  const Graph g = test_graph(100, 5);
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 11, 3, 32), g.num_nodes());
  ServiceResult results[2];
  for (const bool static_admission : {true, false}) {
    ServiceConfig cfg;
    cfg.static_admission = static_admission;
    SchedulerDaemon daemon(g, cfg);
    results[static_admission ? 0 : 1] = daemon.serve(stream);
  }
  EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
  // The profiling split (static vs executed) is the one stat that legitimately
  // differs between the modes; everything the jobs can observe is identical.
  EXPECT_EQ(results[0].stats.completed, results[1].stats.completed);
  EXPECT_EQ(results[0].stats.deferrals, results[1].stats.deferrals);
  EXPECT_EQ(results[0].stats.total_messages, results[1].stats.total_messages);
  EXPECT_EQ(results[0].latency_p99, results[1].latency_p99);
  ASSERT_EQ(results[0].outcomes.size(), results[1].outcomes.size());
  for (std::size_t i = 0; i < results[0].outcomes.size(); ++i) {
    EXPECT_EQ(results[0].outcomes[i].completed, results[1].outcomes[i].completed);
    EXPECT_EQ(results[0].outcomes[i].delay, results[1].outcomes[i].delay);
    EXPECT_EQ(results[0].outcomes[i].finish_tick, results[1].outcomes[i].finish_tick);
  }
}

TEST(Daemon, CacheKeysAreStableAcrossServesAndSeeds) {
  // The same spec pool served under different delay seeds must rebuild
  // nothing: a second daemon on the same graph re-profiles at most the
  // distinct programs, regardless of scheduling randomness.
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(0.75, 3, 2, 24), g.num_nodes());
  ServiceConfig a;
  a.delay_seed = 1;
  ServiceConfig b;
  b.delay_seed = 999;
  SchedulerDaemon first(g, a);
  SchedulerDaemon second(g, b);
  const auto ra = first.serve(stream);
  const auto rb = second.serve(stream);
  EXPECT_EQ(ra.stats.cache.misses, rb.stats.cache.misses);
  EXPECT_EQ(ra.stats.cache.hits, rb.stats.cache.hits);
  EXPECT_EQ(ra.stats.completed, rb.stats.completed);
}

TEST(Daemon, CacheEvictionUnderTinyCapacity) {
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 5, 4, 32), g.num_nodes());
  ServiceConfig cfg;
  cfg.cache_capacity = 1;  // 4 tenants x 2 specs compete for one slot
  SchedulerDaemon daemon(g, cfg);
  const ServiceResult result = daemon.serve(stream);
  EXPECT_GT(result.stats.cache.evictions, 0u);
  EXPECT_EQ(result.stats.admitted, result.stats.completed);
  EXPECT_LE(daemon.cache().size(), 1u);
}

TEST(Daemon, QueueFullBackpressure) {
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(2.0, 3, 2, 24), g.num_nodes());
  ServiceConfig cfg;
  cfg.max_queue = 2;
  cfg.epoch_ticks = 16;  // long epochs force the tiny queue to overflow
  SchedulerDaemon daemon(g, cfg);
  const ServiceResult result = daemon.serve(stream);
  EXPECT_GT(result.stats.rejected_queue_full, 0u);
  std::uint64_t queue_full = 0;
  for (const auto& out : result.outcomes) {
    if (out.rejected == RejectCode::kQueueFull) {
      ++queue_full;
      EXPECT_FALSE(out.admitted);
      EXPECT_FALSE(out.completed);
    }
  }
  EXPECT_EQ(queue_full, result.stats.rejected_queue_full);
  EXPECT_LE(result.stats.peak_queue_depth, 2u);
}

TEST(Daemon, CongestionBackpressureDefersAndRejects) {
  // A tight budget on a long-epoch daemon: many same-tenant jobs compose at
  // once and their summed loads cross the per-cell budget, so some defer and
  // -- with max_deferrals = 0 -- are rejected with the congestion reason.
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(2.0, 13, 1, 32), g.num_nodes());
  ASSERT_GT(stream.size(), 8u);
  ServiceConfig cfg;
  cfg.phase_len = 1;
  cfg.congestion_budget = 1;
  cfg.max_deferrals = 0;
  cfg.epoch_ticks = 32;
  SchedulerDaemon daemon(g, cfg);
  const ServiceResult result = daemon.serve(stream);
  EXPECT_GT(result.stats.deferrals, 0u);
  EXPECT_GT(result.stats.rejected_congestion, 0u);
  for (const auto& out : result.outcomes) {
    if (out.rejected == RejectCode::kCongestionBudget) {
      EXPECT_FALSE(out.admitted);
      EXPECT_GT(out.deferrals, 0u);
    }
  }
  // Everything that was admitted still verified and completed.
  EXPECT_EQ(result.stats.admitted, result.stats.completed);
}

TEST(Daemon, DeferredJobsSurviveToCompletion) {
  // Same overload, but with deferral headroom: jobs wait out the congestion
  // instead of dying. Nonzero deferrals with zero rejections proves the
  // defer-retry path works end to end.
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(2.0, 13, 1, 32), g.num_nodes());
  ServiceConfig cfg;
  cfg.phase_len = 1;
  cfg.congestion_budget = 1;
  cfg.max_deferrals = 64;
  cfg.epoch_ticks = 32;
  SchedulerDaemon daemon(g, cfg);
  const ServiceResult result = daemon.serve(stream);
  EXPECT_GT(result.stats.deferrals, 0u);
  EXPECT_EQ(result.stats.completed, stream.size());
  bool some_deferred_completed = false;
  for (const auto& out : result.outcomes) {
    some_deferred_completed |= (out.completed && out.deferrals > 0);
  }
  EXPECT_TRUE(some_deferred_completed);
}

TEST(Daemon, TenantFairnessUnderContention) {
  // With per-tenant fairness, no tenant should be starved outright: every
  // tenant with arrivals completes at least one job even under a tight
  // budget that forces rationing.
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(1.5, 21, 4, 32), g.num_nodes());
  ServiceConfig cfg;
  cfg.phase_len = 1;
  cfg.congestion_budget = 2;
  cfg.max_deferrals = 2;
  cfg.epoch_ticks = 16;
  SchedulerDaemon daemon(g, cfg);
  const ServiceResult result = daemon.serve(stream);
  std::map<std::uint32_t, std::uint64_t> arrived;
  std::map<std::uint32_t, std::uint64_t> completed;
  for (const auto& out : result.outcomes) {
    ++arrived[out.request.tenant];
    if (out.completed) ++completed[out.request.tenant];
  }
  for (const auto& [tenant, n_arrived] : arrived) {
    EXPECT_GT(completed[tenant], 0u) << "tenant " << tenant << " starved ("
                                     << n_arrived << " arrivals)";
  }
}

/// The stream the stale-cache scenario serves: one tenant on test_graph().
std::vector<JobRequest> poisoned_stream(const Graph& g) {
  return service::generate_job_stream(stream_config(0.5, 3, 1, 16), g.num_nodes());
}

/// Poisons `daemon`'s cache with a profile of the wrong program (an
/// aggregate's geometry under a broadcast's key, or vice versa) for `victim`.
void poison_cache(SchedulerDaemon& daemon, const Graph& g, const JobSpec& victim) {
  JobSpec other = victim;
  other.kind = victim.kind == JobSpec::Kind::kAggregate ? JobSpec::Kind::kBroadcast
                                                        : JobSpec::Kind::kAggregate;
  const auto wrong =
      std::make_shared<const SoloRunResult>(solo_run(g, *service::make_algorithm(other)));
  ASSERT_NE(wrong->pattern.last_message_round(),
            solo_run(g, *service::make_algorithm(victim)).pattern.last_message_round());
  JobProfile poison;
  poison.rounds = service::make_algorithm(victim)->rounds();
  poison.max_edge_load = wrong->pattern.max_edge_load();
  poison.total_messages = wrong->pattern.total_messages();
  poison.solo = wrong;
  daemon.mutable_cache().insert(
      ProfileKey{victim.fingerprint(), graph_fingerprint(g)}, poison);
}

TEST(Daemon, StaleCacheEntryIsCaughtByTheGateAndRecovered) {
  // THE divergence scenario: poison the cache with a profile of the wrong
  // program. The daemon must not execute it -- the verifier gate rejects the
  // composed schedule, the entry is invalidated, the job re-profiled and
  // served correctly.
  const Graph g = test_graph();
  const auto stream = poisoned_stream(g);
  ASSERT_FALSE(stream.empty());

  SchedulerDaemon daemon(g, {});
  poison_cache(daemon, g, stream[0].spec);

  const ServiceResult result = daemon.serve(stream);
  // The gate fired at least once, the poisoned entry was invalidated, and
  // every job still completed with solo-equal outputs.
  EXPECT_GT(result.stats.gate_rejections, 0u);
  EXPECT_GT(result.stats.requeues_verify, 0u);
  EXPECT_GT(result.stats.cache.invalidations, 0u);
  EXPECT_EQ(result.stats.rejected_verify, 0u);
  EXPECT_EQ(result.stats.completed, stream.size());
  EXPECT_EQ(result.stats.admitted, result.stats.completed);
}

TEST(Daemon, NullProfileIsAShapeGuardMiss) {
  // A JobProfile{} carries no solo run at all. The cache lookup finds it, the
  // shape guard refuses it (erase + invalidation), and the job is profiled
  // afresh -- so the trajectory is the clean daemon's, bit for bit.
  const Graph g = test_graph();
  const auto stream = poisoned_stream(g);
  ASSERT_FALSE(stream.empty());
  SchedulerDaemon clean(g, {});
  const ServiceResult expected = clean.serve(stream);

  SchedulerDaemon daemon(g, {});
  daemon.mutable_cache().insert(
      ProfileKey{stream[0].spec.fingerprint(), graph_fingerprint(g)}, JobProfile{});
  const ServiceResult result = daemon.serve(stream);
  EXPECT_EQ(result.stats.cache.invalidations, 1u);
  EXPECT_EQ(result.stats.cache.hits, expected.stats.cache.hits + 1);  // the refused lookup
  EXPECT_EQ(result.stats.profiles_static, expected.stats.profiles_static);
  EXPECT_EQ(result.stats.gate_rejections, 0u);
  EXPECT_FALSE(result.outcomes[0].cache_hit);
  EXPECT_EQ(result.stats.completed, stream.size());
  EXPECT_EQ(result.fingerprint, expected.fingerprint);
  const JobProfile* reprofiled = daemon.mutable_cache().find(
      ProfileKey{stream[0].spec.fingerprint(), graph_fingerprint(g)});
  ASSERT_NE(reprofiled, nullptr);
  ASSERT_NE(reprofiled->solo, nullptr);
  EXPECT_EQ(reprofiled->solo->pattern.num_directed_edges(), g.num_directed_edges());
}

TEST(Daemon, StageSecondsSplitTheWallTime) {
  const Graph g = test_graph();
  const auto stream =
      service::generate_job_stream(stream_config(1.0, 3, 3, 32), g.num_nodes());
  SchedulerDaemon daemon(g, {});
  const ServiceResult result = daemon.serve(stream);
  const auto& s = result.stats;
  ASSERT_GT(s.executions, 0u);
  EXPECT_GE(s.profile_seconds, 0.0);
  EXPECT_GE(s.compose_seconds, 0.0);
  EXPECT_GT(s.gate_seconds, 0.0);
  EXPECT_GT(s.execute_seconds, 0.0);
  EXPECT_GT(s.collect_seconds, 0.0);
  EXPECT_LE(s.profile_seconds + s.compose_seconds + s.gate_seconds + s.execute_seconds +
                s.collect_seconds,
            s.wall_seconds);

  // Timed document only: the deterministic one is unchanged by the split.
  std::string error;
  const auto doc = json::parse(result.to_json(true), &error);
  ASSERT_NE(doc, nullptr) << error;
  const auto* stages = doc->get("stage_seconds");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->get("gate")->number, s.gate_seconds);
  EXPECT_EQ(stages->get("execute")->number, s.execute_seconds);
  EXPECT_EQ(stages->get("collect")->number, s.collect_seconds);
  EXPECT_EQ(result.to_json(false).find("stage_seconds"), std::string::npos);
  ServiceResult zeroed = result;
  zeroed.stats.compose_seconds = zeroed.stats.gate_seconds = 0.0;
  zeroed.stats.execute_seconds = zeroed.stats.profile_seconds = 0.0;
  zeroed.stats.collect_seconds = 0.0;
  zeroed.stats.wall_seconds = 0.0;
  EXPECT_EQ(zeroed.to_json(false), result.to_json(false));
}

TEST(DaemonDeathTest, ContractViolationsDie) {
  const Graph g = test_graph();
  {
    ServiceConfig cfg;
    cfg.epoch_ticks = 0;
    EXPECT_DEATH(SchedulerDaemon(g, cfg), "epoch_ticks");
  }
  {
    ServiceConfig cfg;
    cfg.max_queue = 0;
    EXPECT_DEATH(SchedulerDaemon(g, cfg), "max_queue");
  }
  {
    SchedulerDaemon daemon(g, {});
    auto stream = service::generate_job_stream(stream_config(), g.num_nodes());
    if (!stream.empty()) {
      stream[0].job_id = 5;  // non-dense ids violate the serve contract
      EXPECT_DEATH((void)daemon.serve(stream), "dense");
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned service results: the end-to-end fingerprint and an FNV digest of the
// deterministic JSON document for fixed streams. Any change to the cohort
// path that moves an admission, delay, deferral, cache decision or output
// moves these constants.
// ---------------------------------------------------------------------------

struct ServiceGolden {
  std::uint64_t fingerprint;
  std::uint64_t json_digest;
};

void expect_golden(const ServiceResult& result, ServiceGolden golden) {
  const std::uint64_t digest = Fingerprint{}.mix_bytes(result.to_json(false)).digest();
  EXPECT_EQ(result.fingerprint, golden.fingerprint) << std::hex << "0x" << result.fingerprint;
  EXPECT_EQ(digest, golden.json_digest) << std::hex << "0x" << digest;
  EXPECT_EQ(result.stats.admitted, result.stats.completed);
}

/// The perfbench service_stream shape: G(300, 6/n), 2 jobs/tick for 600
/// ticks, 16 tenants x 8 specs (more distinct specs than the default
/// 64-entry cache holds, so about half the lookups miss).
struct BenchShape {
  Graph g;
  std::vector<JobRequest> stream;
};

BenchShape bench_shape() {
  Rng rng(1);
  BenchShape shape{make_gnp_connected(300, 6.0 / 300, rng), {}};
  JobStreamConfig cfg;
  cfg.arrival_rate = 2.0;
  cfg.arrival_seed = 1;
  cfg.tenants = 16;
  cfg.specs_per_tenant = 8;
  cfg.duration = 600;
  shape.stream = service::generate_job_stream(cfg, shape.g.num_nodes());
  return shape;
}

TEST(Daemon, OneProofPerGateRun) {
  // The daemon proves each composed cohort once and the engine proves
  // nothing, so each gate run costs exactly one check_schedule, on the
  // perfbench stream and on a stream whose gate rejects a poisoned profile.
  const auto shape = bench_shape();
  MetricsRegistry reg;
  ServiceConfig cfg;
  cfg.telemetry = &reg;
  SchedulerDaemon daemon(shape.g, cfg);
  const ServiceResult result = daemon.serve(shape.stream);
  ASSERT_NE(reg.span("verify/check_schedule"), nullptr);
  EXPECT_EQ(reg.span("verify/check_schedule")->count, result.stats.gate_runs);
  EXPECT_EQ(result.stats.executions, 75u);

  const Graph g = test_graph();
  const auto stream = poisoned_stream(g);
  MetricsRegistry poisoned_reg;
  ServiceConfig poisoned_cfg;
  poisoned_cfg.telemetry = &poisoned_reg;
  SchedulerDaemon poisoned(g, poisoned_cfg);
  poison_cache(poisoned, g, stream[0].spec);
  const ServiceResult recovered = poisoned.serve(stream);
  ASSERT_EQ(recovered.stats.gate_rejections, 1u);
  EXPECT_EQ(poisoned_reg.span("verify/check_schedule")->count, recovered.stats.gate_runs);
}

TEST(ServiceGoldens, PerfbenchShape) {
  const auto shape = bench_shape();
  ASSERT_EQ(shape.stream.size(), 1177u);
  SchedulerDaemon daemon(shape.g, {});
  const ServiceResult result = daemon.serve(shape.stream);
  EXPECT_EQ(result.stats.executions, 75u);
  EXPECT_EQ(result.stats.cache.hits, 582u);
  expect_golden(result, {0xca490bb6f8c84db4ULL, 0x7afe9b8bf523af1bULL});
}

TEST(ServiceGoldens, CacheDisabled) {
  const auto shape = bench_shape();
  ServiceConfig cfg;
  cfg.cache_capacity = 0;
  SchedulerDaemon daemon(shape.g, cfg);
  const ServiceResult result = daemon.serve(shape.stream);
  EXPECT_EQ(result.stats.cache.misses, shape.stream.size());
  expect_golden(result, {0x6b99e14d2e971a40ULL, 0x8008ff30332496d7ULL});
}

TEST(ServiceGoldens, ExecutedProfiling) {
  // Same trajectory as PerfbenchShape (equal fingerprint); only the
  // profiling split in the document differs.
  const auto shape = bench_shape();
  ServiceConfig cfg;
  cfg.static_admission = false;
  SchedulerDaemon daemon(shape.g, cfg);
  const ServiceResult result = daemon.serve(shape.stream);
  EXPECT_EQ(result.stats.profiles_static, 0u);
  expect_golden(result, {0xca490bb6f8c84db4ULL, 0xf0b50c072183b37bULL});
}

TEST(ServiceGoldens, PoisonedCacheRequeue) {
  const Graph g = test_graph();
  const auto stream = poisoned_stream(g);
  SchedulerDaemon daemon(g, {});
  poison_cache(daemon, g, stream[0].spec);
  const ServiceResult result = daemon.serve(stream);
  EXPECT_EQ(result.stats.gate_rejections, 1u);
  expect_golden(result, {0xc5ae1e8a22d9fa33ULL, 0x4cd63ed86b5c8fb2ULL});
}

// ---------------------------------------------------------------------------
// Service JSON and the RunReport section splice
// ---------------------------------------------------------------------------

TEST(ServiceJson, DocumentParsesAndCarriesTheHeadlines) {
  const Graph g = test_graph();
  const auto stream = service::generate_job_stream(stream_config(), g.num_nodes());
  SchedulerDaemon daemon(g, {});
  const ServiceResult result = daemon.serve(stream);

  std::string error;
  const auto doc = json::parse(result.to_json(), &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->get("schema")->string, "dasched.service.v1");
  EXPECT_EQ(doc->get("jobs")->get("arrived")->number,
            static_cast<double>(result.stats.arrived));
  EXPECT_EQ(doc->get("jobs")->get("completed")->number,
            static_cast<double>(result.stats.completed));
  EXPECT_EQ(doc->get("latency_ticks")->get("p50")->number,
            static_cast<double>(result.latency_p50));
  EXPECT_EQ(doc->get("latency_ticks")->get("p99")->number,
            static_cast<double>(result.latency_p99));
  EXPECT_EQ(doc->get("cache")->get("hits")->number,
            static_cast<double>(result.stats.cache.hits));
  EXPECT_GT(doc->get("cache")->get("hit_rate")->number, 0.0);
  EXPECT_EQ(doc->get("verify")->get("gate_runs")->number,
            static_cast<double>(result.stats.gate_runs));
  ASSERT_NE(doc->get("fingerprint"), nullptr);
  EXPECT_TRUE(doc->get("fingerprint")->is_string());
  // Timed variant has throughput rates; the deterministic one must not.
  EXPECT_NE(doc->get("throughput")->get("jobs_per_sec"), nullptr);
  const auto bare = json::parse(result.to_json(false), &error);
  ASSERT_NE(bare, nullptr) << error;
  EXPECT_EQ(bare->get("throughput")->get("jobs_per_sec"), nullptr);
  EXPECT_EQ(bare->get("throughput")->get("wall_seconds"), nullptr);
}

TEST(ServiceJson, DeterministicDocumentIsByteStable) {
  const Graph g = test_graph();
  const auto stream = service::generate_job_stream(stream_config(), g.num_nodes());
  SchedulerDaemon a(g, {});
  SchedulerDaemon b(g, {});
  EXPECT_EQ(a.serve(stream).to_json(false), b.serve(stream).to_json(false));
}

TEST(RunReportSections, ServiceSectionSplicesIntoTheReport) {
  RunReport report;
  report.set_meta("tool", "test");
  report.set_section_json("service", R"({"schema":"dasched.service.v1","x":1})");
  // Same name replaces, different name appends in insertion order.
  report.set_section_json("service", R"({"schema":"dasched.service.v1","x":2})");
  std::ostringstream os;
  report.write(os);
  std::string error;
  const auto doc = json::parse(os.str(), &error);
  ASSERT_NE(doc, nullptr) << error;
  ASSERT_NE(doc->get("service"), nullptr);
  EXPECT_EQ(doc->get("service")->get("x")->number, 2.0);
  EXPECT_EQ(doc->get("service")->get("schema")->string, "dasched.service.v1");
  EXPECT_FALSE(report.empty());
}

TEST(RunReportSectionsDeathTest, ReservedSectionNamesDie) {
  RunReport report;
  EXPECT_DEATH(report.set_section_json("telemetry", "{}"), "reserved");
  EXPECT_DEATH(report.set_section_json("meta", "{}"), "reserved");
}

// ---------------------------------------------------------------------------
// Service flag validation (util/flags.hpp is the single parsing authority)
// ---------------------------------------------------------------------------

TEST(ServiceFlags, U64FlagsRejectGarbage) {
  // --arrival-seed / --duration / --max-queue route through parse_flag_u64.
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_flag_u64("0", &v));
  EXPECT_TRUE(parse_flag_u64("18446744073709551615", &v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  for (const char* bad : {"", " ", "12x", "x12", "-3", "+3", " 12", "12 ",
                          "18446744073709551616", "0x10", "1e3", "3.5"}) {
    EXPECT_FALSE(parse_flag_u64(bad, &v)) << "'" << bad << "'";
  }
}

TEST(ServiceFlags, U32FlagsRejectGarbageAndOverflow) {
  // --tenants / --radius / --max-deferrals / --threads route through
  // parse_flag_u32.
  std::uint32_t v = 0;
  EXPECT_TRUE(parse_flag_u32("4294967295", &v));
  EXPECT_FALSE(parse_flag_u32("4294967296", &v));
  for (const char* bad : {"", "four", "-1", "2 4"}) {
    EXPECT_FALSE(parse_flag_u32(bad, &v)) << "'" << bad << "'";
  }
}

TEST(ServiceFlags, RateFlagParsesDoublesStrictly) {
  // --arrival-rate routes through parse_flag_double plus a > 0 check at the
  // call sites (dasched_serve, bench_e16).
  double v = 0.0;
  EXPECT_TRUE(parse_flag_double("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(parse_flag_double("2", &v));
  for (const char* bad : {"", "fast", "1.5x", "x1.5", "1.5 ", " 1.5"}) {
    EXPECT_FALSE(parse_flag_double(bad, &v)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace dasched
