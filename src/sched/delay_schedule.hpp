// Combinatorial analysis of delay-based schedules.
//
// A delay schedule assigns each algorithm a start phase; algorithm i's
// virtual round r lands in phase delay_i + r - 1. Given the solo
// communication patterns, the per-(phase, directed-edge) loads -- and hence
// every schedule-length measure -- are a pure counting exercise. This lets
// benchmark sweeps evaluate thousands of random delay draws without
// re-running the black-box programs (the executor is used once per
// configuration to validate correctness; the analyzer reproduces its load
// profile exactly, which tests assert).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sched/problem.hpp"
#include "util/load_cells.hpp"

namespace dasched {

struct LoadProfile {
  std::vector<std::uint32_t> max_load_per_phase;
  std::uint32_t max_load = 0;
  std::uint64_t total_messages = 0;

  std::uint32_t num_phases() const {
    return static_cast<std::uint32_t>(max_load_per_phase.size());
  }

  /// Realized rounds with adaptive phase lengths: sum of max(1, load).
  std::uint64_t adaptive_rounds() const { return adaptive_length(max_load_per_phase); }
  /// Fixed phases of `phase_len` rounds.
  FixedPhase fixed(std::uint32_t phase_len) const {
    return fixed_length(max_load_per_phase, phase_len);
  }
};

/// Loads under per-algorithm phase delays (requires problem.run_solo()).
LoadProfile delay_load_profile(const ScheduleProblem& problem,
                               std::span<const std::uint32_t> delays);

}  // namespace dasched
