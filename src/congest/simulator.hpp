// Solo (stand-alone) execution of a single distributed algorithm.
//
// This is the plain CONGEST model: big-round t is exactly virtual round t+1
// for every node, and the one-message-per-directed-edge-per-round bandwidth
// bound is *enforced* (an algorithm that violates it is not a valid CONGEST
// algorithm). The solo run yields the algorithm's communication pattern
// (Section 2) and per-node outputs, which schedulers use as ground truth.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "congest/pattern.hpp"
#include "congest/program.hpp"
#include "graph/graph.hpp"

namespace dasched {

struct SoloRunResult {
  std::vector<std::vector<std::uint64_t>> outputs;  // perf-ok: per node, filled once per run
  CommunicationPattern pattern;
  std::uint64_t total_messages = 0;
};

/// One solo run of `algorithm` on `g` with pattern recording, on a fresh
/// Executor. `telemetry` (optional, borrowed) instruments the run: a
/// simulator/run span, the simulator.runs counter and the executor's own
/// metrics (see executor.hpp).
SoloRunResult solo_run(const Graph& g, const DistributedAlgorithm& algorithm,
                       TelemetrySink* telemetry = nullptr);

/// Solo runs for callers that read only outputs and run many algorithms on
/// one graph -- the Thm 4.1 precomputation passes, one run per clustering or
/// sharing layer. Same lockstep schedule, unit-capacity bound and checks as
/// solo_run, but no pattern recording, and one Executor serves every run so
/// its arenas stay warm across layers.
class SoloRunner {
 public:
  explicit SoloRunner(const Graph& g);

  /// outputs[node] of a solo run of `algorithm`.
  std::vector<std::vector<std::uint64_t>> outputs(const DistributedAlgorithm& algorithm);

 private:
  const Graph& graph_;
  Executor executor_;
};

}  // namespace dasched
