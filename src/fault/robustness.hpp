// Schedule-robustness analysis: how much headroom a schedule has and how
// often faulty runs still complete correctly.
//
// Two views:
//   * Slack: per big-round, phase_len - max_edge_load. Positive slack is the
//     paper's w.h.p. headroom (a fixed phase absorbs that many extra
//     messages, e.g. retransmissions, before overflowing); negative slack
//     marks overflowing phases. Computed from the executor's measured
//     `max_load_per_big_round`, so it works for any schedule.
//   * Survival curve: fraction of runs that complete correctly as a function
//     of the drop rate, measured empirically over seeded trials. The trial
//     body is a caller-provided callback so this file stays independent of
//     problem/scheduler types; fault seeds are derived deterministically from
//     (base_seed, point index, trial index).
//
// Both export through the existing telemetry counters (`fault.slack.*`,
// `fault.survival.*`) when handed a sink, and render to `Table`s that flow
// into RunReport JSON. See docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace dasched {

struct SlackReport {
  std::uint32_t phase_len = 0;
  /// Per big-round: phase_len - max_load (negative = overflowing phase).
  std::vector<std::int64_t> slack;
  std::int64_t min_slack = 0;
  double mean_slack = 0.0;
  /// Big-rounds whose load exceeded phase_len (schedule failures).
  std::uint64_t negative_rounds = 0;

  Table to_table(const std::string& title) const;
};

/// Slack of a realized schedule against fixed phases of `phase_len` physical
/// rounds. `max_load_per_big_round` is ExecutionResult's vector of the same
/// name. Emits fault.slack.min/mean gauges, the fault.slack.negative_rounds
/// counter, and one fault.slack histogram sample per big-round when
/// `telemetry` is non-null.
SlackReport analyze_slack(std::span<const std::uint32_t> max_load_per_big_round,
                          std::uint32_t phase_len,
                          TelemetrySink* telemetry = nullptr);

struct SurvivalPoint {
  double drop_rate = 0.0;
  std::uint32_t trials = 0;
  std::uint32_t survived = 0;
  double survival_fraction() const {
    return trials == 0 ? 0.0 : static_cast<double>(survived) / trials;
  }
};

struct SurvivalCurve {
  std::vector<SurvivalPoint> points;
};

/// Runs `trials` seeded trials per drop rate; `run_trial(drop_rate, seed)`
/// returns true when the faulty run completed correctly. Seeds are
/// seed_combine(base_seed, point index, trial index), so curves are exactly
/// reproducible. Emits fault.survival.trials / fault.survival.survived
/// counters and one fault.survival.fraction histogram sample per point when
/// `telemetry` is non-null.
SurvivalCurve survival_curve(
    std::span<const double> drop_rates, std::uint32_t trials,
    std::uint64_t base_seed,
    const std::function<bool(double drop_rate, std::uint64_t fault_seed)>& run_trial,
    TelemetrySink* telemetry = nullptr);

}  // namespace dasched
