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
  /// Last virtual round in which any message was sent (<= algorithm rounds()).
  std::uint32_t last_message_round = 0;
};

class Simulator {
 public:
  /// `telemetry` (optional, borrowed) instruments each solo run: a
  /// simulator/run span plus the executor's own metrics (see executor.hpp).
  explicit Simulator(const Graph& g, std::uint32_t max_payload_words = kDefaultMaxPayloadWords,
                     TelemetrySink* telemetry = nullptr)
      : graph_(g), max_payload_words_(max_payload_words), telemetry_(telemetry) {}

  SoloRunResult run(const DistributedAlgorithm& algorithm) const;

 private:
  const Graph& graph_;
  std::uint32_t max_payload_words_;
  TelemetrySink* telemetry_;
};

/// Solo runs for callers that read only outputs and run many algorithms on
/// one graph -- the Thm 4.1 precomputation passes, one run per clustering or
/// sharing layer. Same lockstep schedule, unit-capacity bound and checks as
/// Simulator::run, but no pattern recording, and one Executor serves every
/// run so its arenas stay warm across layers.
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
