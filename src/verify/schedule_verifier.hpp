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
// corrupting a run. It remembers its last proof, so a schedule proved once
// -- by the gate's own verify() or an earlier admit() -- is not proved again
// while neither it nor its problem changes.
#pragma once

#include <cstdint>
#include <memory>
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
/// executor and rejects on any error-severity finding.
///
/// The gate remembers its last proof: the Report, and what it was about --
/// the table (dimensions and flat slot lane, compared slot for slot), the
/// graph, and each algorithm's pointer and rounds() with its solo run. A
/// schedule equal to the proved one on all of these is admitted or rejected
/// by the remembered Report without running check_schedule again; any
/// difference re-proves. The remembered solo runs are held (shared), so
/// their addresses cannot be reused by other results while they are part of
/// the memo. The proof's key and cell buffers are the gate's own scratch,
/// reused across proofs.
///
/// verify() re-points the gate at another problem and proves a schedule for
/// it, which lets one gate serve a sequence of problems: the service daemon
/// proves each cohort through verify() and installs the same gate in its one
/// Executor, whose admit() then finds the proof already made. Borrow
/// semantics: the problem must outlive every admit() against it, and the
/// gate every executor run it guards.
class VerifyingAdmission final : public ScheduleAdmission {
 public:
  /// An unbound gate; verify() binds it to its first problem.
  explicit VerifyingAdmission(VerifyOptions opts = {}) : opts_(opts) {}
  /// A gate bound to `problem` (its solo runs are performed here if needed).
  explicit VerifyingAdmission(ScheduleProblem& problem, VerifyOptions opts = {})
      : opts_(opts) {
    bind(problem);
  }

  /// Re-points the gate at `problem` (running its solo runs if needed) and
  /// proves `schedule` against it -- or reuses the remembered proof when
  /// both are unchanged. Returns the proof, also kept as last_report().
  const Report& verify(ScheduleProblem& problem, const ScheduleTable& schedule);

  bool admit(std::span<const DistributedAlgorithm* const> algorithms,
             const ScheduleTable& schedule) const override;

  /// Findings of the most recent proof (empty before the first one).
  const Report& last_report() const { return last_; }

 private:
  /// One algorithm's share of what a proof was about.
  struct Subject {
    const DistributedAlgorithm* algorithm;
    std::uint32_t rounds;
    std::shared_ptr<const SoloRunResult> solo;
  };

  void bind(ScheduleProblem& problem);
  /// The memo check, then check_schedule when it misses.
  const Report& prove(const ScheduleTable& schedule) const;

  ScheduleProblem* problem_ = nullptr;
  VerifyOptions opts_;
  mutable Report last_;
  // What last_ proved (nothing while proved_subjects_ is empty).
  mutable const Graph* proved_graph_ = nullptr;
  mutable std::vector<Subject> proved_subjects_;
  mutable ScheduleTable proved_table_;
  // check_schedule's buffers, kept warm across proofs.
  mutable std::vector<std::uint64_t> loads_;
  mutable std::vector<std::uint64_t> spare_;
  mutable std::vector<LoadCell> cells_;
};

}  // namespace dasched::verify
