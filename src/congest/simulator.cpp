#include "congest/simulator.hpp"

#include "util/check.hpp"

namespace dasched {

namespace {

ExecConfig solo_config(bool record_patterns, TelemetrySink* telemetry) {
  ExecConfig cfg;
  cfg.record_patterns = record_patterns;
  cfg.enforce_unit_capacity = true;
  cfg.telemetry = telemetry;
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

SoloRunResult solo_run(const Graph& g, const DistributedAlgorithm& algorithm,
                       TelemetrySink* telemetry) {
  Executor executor(g, solo_config(true, telemetry));

  TimedSpan span(telemetry, "simulator", "run");
  if (telemetry != nullptr) {
    telemetry->add_counter("simulator.runs", 1);
    span.arg("rounds", algorithm.rounds());
  }

  auto exec = run_lockstep(executor, algorithm, g.num_nodes());
  return {std::move(exec.outputs[0]), std::move(exec.patterns[0]), exec.total_messages};
}

SoloRunner::SoloRunner(const Graph& g) : graph_(g), executor_(g, solo_config(false, nullptr)) {}

std::vector<std::vector<std::uint64_t>> SoloRunner::outputs(
    const DistributedAlgorithm& algorithm) {
  return std::move(run_lockstep(executor_, algorithm, graph_.num_nodes()).outputs[0]);
}

}  // namespace dasched
