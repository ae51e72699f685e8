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
// Proving is the caller's step, before it hands a table to the engine: the
// executor runs what it is given and proves nothing. The service daemon
// proves every cohort it composes, once, and runs only a table whose Report
// is ok() (service/daemon.hpp).
#pragma once

#include <cstdint>
#include <vector>

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

/// check_schedule's working buffers. A caller that proves many schedules --
/// the service daemon, once per gate run -- keeps one and passes it to every
/// proof, so their capacity stays warm; `cells` receives the static load
/// surface of the latest proof.
struct ProofScratch {
  std::vector<std::uint64_t> loads;
  std::vector<std::uint64_t> spare;
  std::vector<LoadCell> cells;
};

/// check_schedule over `scratch`'s buffers.
Report check_schedule(const ScheduleProblem& problem, const ScheduleTable& schedule,
                      const VerifyOptions& opts, ProofScratch& scratch);

}  // namespace dasched::verify
