// Solo (stand-alone) execution of a single distributed algorithm.
//
// This is the plain CONGEST model: big-round t is exactly virtual round t+1
// for every node, and the one-message-per-directed-edge-per-round bandwidth
// bound is *enforced* (an algorithm that violates it is not a valid CONGEST
// algorithm). The solo run yields the algorithm's communication pattern
// (Section 2) and per-node outputs, which schedulers use as ground truth.
// The pattern is the run's measured load surface (ExecProfiler cells), its
// big-rounds renumbered as virtual rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "congest/pattern.hpp"
#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "telemetry/profiler.hpp"

namespace dasched {

struct SoloRunResult {
  NodeOutputs outputs;
  CommunicationPattern pattern;
};

/// Solo runs of many algorithms on one graph: one profiled Executor serves
/// every run, so its arenas and the profiler's stay warm. `telemetry`
/// (optional, borrowed) instruments each run: a simulator/run span, the
/// simulator.runs counter and the executor's own metrics (see executor.hpp).
class SoloRunner {
 public:
  explicit SoloRunner(const Graph& g, TelemetrySink* telemetry = nullptr);

  /// Outputs and communication pattern of a solo run of `algorithm`.
  SoloRunResult run(const DistributedAlgorithm& algorithm);

 private:
  const Graph& graph_;
  TelemetrySink* telemetry_;
  ExecProfiler profiler_;
  Executor executor_;
};

/// One solo run of `algorithm` on `g`: a one-off SoloRunner.
SoloRunResult solo_run(const Graph& g, const DistributedAlgorithm& algorithm,
                       TelemetrySink* telemetry = nullptr);

/// outputs[node] of a solo run of `algorithm`, for callers that read no
/// pattern (the Thm 4.1 precomputation): the same lockstep schedule,
/// unit-capacity bound and checks as solo_run, on an unobserved Executor.
NodeOutputs solo_outputs(const Graph& g, const DistributedAlgorithm& algorithm);

}  // namespace dasched
