#include "congest/simulator.hpp"

#include "util/check.hpp"

namespace dasched {

namespace {

ExecConfig solo_config(TelemetrySink* telemetry, ExecProfiler* profiler) {
  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  cfg.telemetry = telemetry;
  cfg.profiler = profiler;
  return cfg;
}

/// Lockstep (virtual round r runs in big-round r-1) with the solo contract:
/// no causality violations and every node completed.
ExecutionResult run_lockstep(Executor& executor, const DistributedAlgorithm& algorithm,
                             NodeId num_nodes) {
  const DistributedAlgorithm* algos[] = {&algorithm};
  auto exec = executor.run(algos, ScheduleTable::lockstep(algos, num_nodes));
  DASCHED_CHECK(exec.causality_violations == 0);
  DASCHED_CHECK(exec.all_completed());
  return exec;
}

}  // namespace

SoloRunner::SoloRunner(const Graph& g, TelemetrySink* telemetry)
    : graph_(g), telemetry_(telemetry), executor_(g, solo_config(telemetry, &profiler_)) {}

SoloRunResult SoloRunner::run(const DistributedAlgorithm& algorithm) {
  TimedSpan span(telemetry_, "simulator", "run");
  if (telemetry_ != nullptr) {
    telemetry_->add_counter("simulator.runs", 1);
    span.arg("rounds", algorithm.rounds());
  }

  auto exec = run_lockstep(executor_, algorithm, graph_.num_nodes());
  // Big-round t ran virtual round t + 1, and unit capacity keeps every
  // measured load at 1: the measured surface is the pattern.
  std::vector<LoadCell> cells(profiler_.cells().begin(), profiler_.cells().end());
  for (LoadCell& cell : cells) ++cell.big_round;
  return {std::move(exec.outputs[0]),
          CommunicationPattern(graph_.num_directed_edges(), std::move(cells))};
}

SoloRunResult solo_run(const Graph& g, const DistributedAlgorithm& algorithm,
                       TelemetrySink* telemetry) {
  return SoloRunner(g, telemetry).run(algorithm);
}

NodeOutputs solo_outputs(const Graph& g, const DistributedAlgorithm& algorithm) {
  Executor executor(g, solo_config(nullptr, nullptr));
  return std::move(run_lockstep(executor, algorithm, g.num_nodes()).outputs[0]);
}

}  // namespace dasched
