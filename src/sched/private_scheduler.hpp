// Theorem 4.1 / Theorem 1.3: scheduling with only private randomness.
//
// Pipeline (Section 4.2):
//   1. Ball-carving clustering, Theta(log n) layers (Lemma 4.2), and
//   2. sharing Theta(log^2 n) seed bits inside every cluster (Lemma 4.3),
//      both in one CONGEST run over all layers     -- O(dilation log^2 n) rounds
//   3. Expand each cluster seed into a Theta(log n)-wise independent family
//      (Reed-Solomon over GF(p)) and draw, per clustering layer and per
//      algorithm, a start delay from the paper's nonuniform *block*
//      distribution (Lemma 4.4)
//   4. Run every algorithm truncated per layer (node v participates in round
//      r of a layer only if h'(v) >= r-1, the containment rule that keeps
//      discards causally closed) with first-copy-wins de-duplication:
//      effectively, node v executes round r at the earliest big-round any of
//      its eligible layers schedules it. One big-round = Theta(log n)
//      physical rounds.
//
// With the block distribution the probability that a given big-round carries
// the *first* copy of a message over an edge is O(log n / congestion), so the
// realized schedule is O(congestion + dilation log n) rounds -- measured here
// as the adaptive and fixed-phase lengths of the execution.
//
// The uniform-delay / no-dedup variants used by the E6 ablation live here
// too, as does the combinatorial no-dedup load analyzer.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "sched/clustering.hpp"
#include "sched/problem.hpp"
#include "sched/rand_sharing.hpp"

namespace dasched {

enum class DelayKind {
  kBlock,           // the paper's Lemma 4.4 distribution
  kUniformMatched,  // uniform over the same support size (ablation)
  kUniformFull,     // uniform over [congestion] big-rounds (the paper's
                    // "simpler solution" giving O((C + D) log n))
};

struct PrivateSchedulerConfig {
  std::uint64_t seed = 1;
  ClusteringConfig clustering;      // dilation is overwritten from the problem
  RandSharingConfig sharing;        // seed is overwritten from `seed`
  DelayKind delay_kind = DelayKind::kBlock;
  /// Phase (big-round) length for the fixed-phase measure; 0 derives ceil(log2 n).
  std::uint32_t phase_len = 0;
  /// Build the clustering and share the randomness with the central oracles
  /// instead of the distributed protocols (skips simulation cost in large
  /// sweeps; results identical when the distributed protocols complete,
  /// which tests verify).
  bool central_precomputation = false;
  std::uint32_t congestion_estimate = 0;  // 0 = exact
  /// Worker threads for the scheduled execution (ExecConfig::num_threads);
  /// 0/1 = serial. Results are bit-identical for every value.
  std::uint32_t num_threads = 0;
  /// Optional telemetry sink (borrowed). Propagated into the clustering and
  /// randomness-sharing stages and the executor; the scheduler itself wraps
  /// every pipeline stage (clustering, sharing, compute_delays, build
  /// schedule, execute) in sched.private/* spans and emits coverage/dedup
  /// metrics (see docs/OBSERVABILITY.md).
  TelemetrySink* telemetry = nullptr;
  /// Optional congestion profiler (borrowed), handed through to
  /// ExecConfig::profiler for the scheduled execution. Null = unprofiled.
  ExecProfiler* profiler = nullptr;
};

struct PrivateScheduleOutcome {
  ExecutionResult exec;
  /// CONGEST rounds spent before the schedule starts (Lemmas 4.2 + 4.3).
  std::uint64_t precomputation_rounds = 0;
  /// Realized schedule length in physical rounds (adaptive big-rounds).
  std::uint64_t schedule_rounds = 0;
  FixedPhase fixed{};
  std::uint32_t phase_len = 0;
  std::uint32_t delay_support = 0;  // big-rounds of delay range
  /// The executed big-round table (earliest eligible layer per slot), for
  /// static verification (verify::check_schedule with this delay_support).
  ScheduleTable schedule;

  // Clustering diagnostics (the Lemma 4.2 guarantees).
  std::uint32_t num_layers = 0;
  std::uint32_t hop_cap = 0;
  double mean_coverage = 0.0;   // mean #layers with h' >= dilation
  std::uint32_t min_coverage = 0;
  std::uint64_t uncovered_nodes = 0;  // nodes with no fully-containing layer
  std::uint64_t incomplete_seed_nodes = 0;  // sharing failures (theory: 0)
};

class PrivateRandomnessScheduler {
 public:
  explicit PrivateRandomnessScheduler(PrivateSchedulerConfig cfg = {}) : cfg_(cfg) {}

  PrivateScheduleOutcome run(ScheduleProblem& problem) const;

  /// E6 ablation: per-(big-round) edge loads if every eligible layer
  /// transmitted its copy (no de-duplication), under the same delays as the
  /// real run. Returns max load per big-round.
  static std::vector<std::uint32_t> no_dedup_loads(
      const ScheduleProblem& problem, const Clustering& clustering,
      const std::vector<std::vector<std::vector<std::uint32_t>>>& delay /* [layer][node][alg] */);

  /// Computes the per-(layer, node, algorithm) delays from shared seeds --
  /// exposed for the ablation and for tests of cluster-consistency.
  std::vector<std::vector<std::vector<std::uint32_t>>> compute_delays(
      const ScheduleProblem& problem, const Clustering& clustering,
      const SharedSeeds& seeds, std::uint32_t* support_out) const;

 private:
  PrivateSchedulerConfig cfg_;
};

}  // namespace dasched
