// Theorem 1.1: scheduling with shared randomness via random phase delays.
//
// "Break time into phases, each having Theta(log n) rounds. ... We delay the
// start of each algorithm by a uniform random delay in
// [O(congestion / log n)] phases." The Chernoff bound (for Theta(log n)-wise
// independent delays) then gives O(log n) messages per edge per phase w.h.p.,
// so the whole execution fits in O(congestion/log n) + dilation phases =
// O(congestion + dilation * log n) rounds.
//
// The shared randomness is exactly what the paper budgets: a
// Theta(log n)-wise independent family over GF(p) seeded with Theta(log^2 n)
// bits; algorithm A_i draws its delay from the family at its algorithm id
// (the paper's AID bucket construction).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "sched/problem.hpp"

namespace dasched {

struct SharedSchedulerConfig {
  /// Shared-randomness seed: the Theta(log^2 n) bits all nodes hold.
  std::uint64_t shared_seed = 1;
  /// Phase length multiplier: phase_len = max(1, round(factor * log2 n)).
  double phase_factor = 1.0;
  /// Override for the congestion estimate handed to the scheduler (0 = use the
  /// exact value). Lets tests exercise the paper's "constant-factor
  /// approximation" assumption.
  std::uint32_t congestion_estimate = 0;
  /// Worker threads for the scheduled execution (ExecConfig::num_threads);
  /// 0/1 = serial. Results are bit-identical for every value.
  std::uint32_t num_threads = 0;
  /// Optional telemetry sink (borrowed). Emits sched.shared/run +
  /// sched.shared/execute spans, phase/delay gauges, a sched.shared.delay
  /// histogram, the fixed-phase overflow counter, and the executor's metrics.
  TelemetrySink* telemetry = nullptr;
  /// Optional congestion profiler (borrowed), handed through to
  /// ExecConfig::profiler for the scheduled execution. Null = unprofiled.
  ExecProfiler* profiler = nullptr;
};

struct SharedScheduleOutcome {
  ExecutionResult exec;
  std::uint32_t phase_len = 0;
  std::uint32_t delay_range = 0;  // in phases
  std::vector<std::uint32_t> delays;  // per algorithm, in phases
  /// Realized schedule length in physical rounds (adaptive phase lengths).
  std::uint64_t schedule_rounds = 0;
  /// Fixed-phase view at phase_len.
  FixedPhase fixed{};
  /// The executed big-round table, for static verification
  /// (verify::check_schedule).
  ScheduleTable schedule;
};

class SharedRandomnessScheduler {
 public:
  explicit SharedRandomnessScheduler(SharedSchedulerConfig cfg = {}) : cfg_(cfg) {}

  /// Runs all algorithms of `problem` under random phase delays and returns
  /// the full execution (verify with problem.verify()).
  SharedScheduleOutcome run(ScheduleProblem& problem) const;

  /// Just draws the per-algorithm delays (used by the combinatorial analyzer
  /// to sweep many trials cheaply).
  static std::vector<std::uint32_t> draw_delays(std::uint64_t shared_seed,
                                                std::size_t num_algorithms,
                                                std::uint32_t delay_range,
                                                std::uint32_t independence);

 private:
  SharedSchedulerConfig cfg_;
};

}  // namespace dasched
