// Static schedule verification: prove a schedule's invariants from
// (ScheduleTable, Problem, Graph) alone, with no execution.
//
// The executor discovers bad schedules dynamically -- a causality violation
// is a counter after the fact, a congestion overflow is a measured overflow.
// check_schedule() proves (or refutes) the same properties *before* any
// event runs, from the solo communication patterns: which (round, edge)
// pairs carry messages is a pure function of the patterns, and where those
// messages land in time is a pure function of the table. Every violated
// invariant becomes a structured Finding (findings.hpp) keyed by the
// catalogue in invariants.hpp.
//
// Static loads equal dynamic loads exactly on a reliable network: algorithms
// are deterministic per (alg, node) seed, so a scheduled run transmits
// precisely the solo-pattern messages whose producer slot is scheduled
// (truncated producers send nothing -- Lemma 4.4's discard rule). Tests
// assert this equality against the executor's measured loads.
//
// VerifyingAdmission adapts the verifier to the executor's pre-execution
// admission gate (congest/admission.hpp): with it installed in
// ExecConfig::admission, a bad schedule aborts at admission time instead of
// corrupting a run.
#pragma once

#include <span>
#include <vector>

#include "congest/admission.hpp"
#include "sched/problem.hpp"
#include "telemetry/telemetry.hpp"
#include "util/load_cells.hpp"
#include "verify/findings.hpp"
#include "verify/invariants.hpp"

namespace dasched::verify {

/// Statically checks `schedule` against `problem`'s solo patterns and the
/// invariants selected by `opts`. Requires problem.run_solo() to have been
/// performed (congestion and patterns come from it). Never executes anything.
///
/// When `static_loads` is non-null it receives the full predicted load
/// surface -- one LoadCell per (big-round, directed edge) pair that carries
/// at least one message, sorted by (big_round, edge). On a reliable network
/// this equals the surface an ExecProfiler measures cell for cell; the
/// divergence monitor (verify/divergence.hpp) performs exactly that join.
Report check_schedule(const ScheduleProblem& problem, const ScheduleTable& schedule,
                      const VerifyOptions& opts = {},
                      std::vector<LoadCell>* static_loads = nullptr);

/// ExecConfig::admission adapter: verifies every schedule handed to the
/// executor and rejects on any error-severity finding. The report of the most
/// recent admit() is kept for inspection. Borrow semantics: the problem must
/// outlive the gate, the gate must outlive the executor run.
class VerifyingAdmission final : public ScheduleAdmission {
 public:
  explicit VerifyingAdmission(ScheduleProblem& problem, VerifyOptions opts = {})
      : problem_(&problem), opts_(opts) {
    problem.run_solo();
  }

  bool admit(std::span<const DistributedAlgorithm* const> algorithms,
             const ScheduleTable& schedule) const override;

  /// Findings of the most recent admit() (empty before the first call).
  const Report& last_report() const { return last_; }

 private:
  ScheduleProblem* problem_;
  VerifyOptions opts_;
  mutable Report last_;
};

}  // namespace dasched::verify
