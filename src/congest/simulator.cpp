#include "congest/simulator.hpp"

#include "util/check.hpp"

namespace dasched {

namespace {

ExecConfig solo_config(std::uint32_t max_payload_words, bool record_patterns,
                       TelemetrySink* telemetry) {
  ExecConfig cfg;
  cfg.max_payload_words = max_payload_words;
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

SoloRunResult Simulator::run(const DistributedAlgorithm& algorithm) const {
  Executor executor(graph_, solo_config(max_payload_words_, true, telemetry_));

  TimedSpan span(telemetry_, "simulator", "run");
  if (telemetry_ != nullptr) {
    telemetry_->add_counter("simulator.runs", 1);
    span.arg("rounds", algorithm.rounds());
  }

  auto exec = run_lockstep(executor, algorithm, graph_.num_nodes());

  SoloRunResult result;
  result.outputs = std::move(exec.outputs[0]);
  result.pattern = std::move(exec.patterns[0]);
  result.total_messages = exec.total_messages;
  result.last_message_round = result.pattern.last_message_round();
  return result;
}

SoloRunner::SoloRunner(const Graph& g)
    : graph_(g), executor_(g, solo_config(kDefaultMaxPayloadWords, false, nullptr)) {}

std::vector<std::vector<std::uint64_t>> SoloRunner::outputs(
    const DistributedAlgorithm& algorithm) {
  return std::move(run_lockstep(executor_, algorithm, graph_.num_nodes()).outputs[0]);
}

}  // namespace dasched
