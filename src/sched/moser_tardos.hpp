// O(congestion + dilation) schedules for packet-routing-like instances via
// constructive Lovász Local Lemma (Moser-Tardos resampling).
//
// The paper's Section 1: packet routing admits O(congestion + dilation)
// schedules, classically via log* n levels of LLL [22] -- "now one of the
// materials typically covered in courses on randomized algorithms for
// introducing the Lovász Local Lemma" -- and Theorem 3.1 shows this is
// exactly what *cannot* be done for general algorithms. This module makes
// the routing side of that separation constructive:
//
//   * every algorithm gets a uniformly random start delay in a frame of
//     Theta(congestion) rounds (unit-length phases: this is the true
//     O(C + D) regime, no log n phase padding);
//   * a "bad event" is an overloaded (round, directed edge) pair (more
//     messages than the unit capacity);
//   * while bad events exist, resample the delays of all algorithms
//     participating in one (Moser-Tardos); under the LLL-style condition
//     (bounded dependency between path overlaps) this converges in
//     expectation in O(#events) resamplings.
//
// The result is a schedule of num_phases = frame + dilation rounds with NO
// overflow -- within a constant of C + D. On the Section 3 hard family the
// same procedure must either fail to converge or converge only with a large
// frame (bench E9 measures both sides).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "sched/problem.hpp"

namespace dasched {

struct MoserTardosConfig {
  std::uint64_t seed = 1;
  /// Delay frame = max(1, ceil(frame_factor * congestion)). A (round,
  /// directed edge) holds one message, the CONGEST capacity.
  double frame_factor = 3.0;
  /// Give up after this many resampling iterations (no convergence).
  std::uint64_t max_iterations = 200000;
};

struct MoserTardosOutcome {
  bool converged = false;
  std::uint64_t resample_iterations = 0;
  std::uint32_t frame = 0;
  std::vector<std::uint32_t> delays;  // per algorithm (valid if converged)
  /// Schedule length in rounds (phases are unit length); 0 if not converged.
  std::uint64_t schedule_rounds = 0;
  /// Full execution of the converged schedule (verify via problem.verify()).
  ExecutionResult exec;
};

class MoserTardosScheduler {
 public:
  explicit MoserTardosScheduler(MoserTardosConfig cfg = {}) : cfg_(cfg) {}

  MoserTardosOutcome run(ScheduleProblem& problem) const;

 private:
  MoserTardosConfig cfg_;
};

}  // namespace dasched
