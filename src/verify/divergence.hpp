// The measured-vs-predicted divergence monitor: the closed-loop counterpart
// of the static schedule verifier.
//
// check_schedule() predicts the full per-(big-round, directed-edge) load
// surface of a run from the solo patterns alone (its `static_loads`
// out-parameter); an ExecProfiler measures the surface the executor actually
// realized. On a reliable network the two are equal cell for cell --
// algorithms are deterministic per (alg, node) seed, so the scheduled run
// transmits precisely the predicted messages. check_divergence() joins the
// two sorted surfaces (join_cells, util/load_cells.hpp) and reports every
// disagreement as a structured finding (codes in invariants.hpp):
//
//   divergence.load        both surfaces have the cell, loads differ
//   divergence.unpredicted measured messages on a cell the model missed
//                          (retransmissions consume unmodelled bandwidth)
//   divergence.unrealized  a predicted cell carried nothing (a crash-stopped
//                          sender never transmitted)
//   divergence.rounds      the run's horizon differs from the scheduled
//                          length (retry extension)
//   divergence.summary     (info) join totals
//
// Divergences are *warnings*, not errors: they diagnose where the physical
// network departed from the paper's reliable model, they do not invalidate
// the schedule (Report::ok() stays true). Fault-free runs must produce zero
// divergence findings; tests/test_profiler.cpp pins both directions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/findings.hpp"
#include "verify/invariants.hpp"

namespace dasched::verify {

struct DivergenceOptions {
  /// Absolute per-cell load slack: |measured - predicted| <= tolerance is
  /// treated as agreement. 0 demands exact equality (the reliable-network
  /// contract).
  std::uint32_t tolerance = 0;

  /// Scheduled big-rounds (e.g. check_schedule's Measured::big_rounds). When
  /// > 0 and the profiled run used a different horizon, a divergence.rounds
  /// finding is emitted. 0 skips the horizon check.
  std::uint32_t scheduled_big_rounds = 0;

  /// Cap on *recorded* findings per code; totals stay exact (findings.hpp).
  std::size_t max_findings_per_code = 16;

  /// Optional telemetry sink (borrowed). Emits divergence.* counters and
  /// gauges (docs/OBSERVABILITY.md).
  TelemetrySink* telemetry = nullptr;
};

/// Joins the statically `predicted` load surface (sorted by (big_round,
/// edge), as check_schedule emits it) against the surface `measured` by the
/// profiler's last run. Warning findings per disagreeing cell plus one info
/// summary; ok() is always true.
Report check_divergence(std::span<const LoadCell> predicted,
                        const ExecProfiler& measured,
                        const DivergenceOptions& opts = {});

}  // namespace dasched::verify
