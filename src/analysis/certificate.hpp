// Congestion/dilation certificates produced by the static pattern analyzer.
//
// A certificate states, without any execution, what is known about one
// algorithm's communication pattern over the time-expanded graph G x [T]:
//
//   kExact       the full per-(round, directed-edge) load surface and the
//                per-node outputs, cell-for-cell equal to a solo run.
//   kUpperBound  a sound envelope from the algorithm's declared caps: at most
//                per_cell_bound messages per (round, edge) cell and at most
//                per_edge_bound per directed edge in total. Every solo run is
//                dominated by the envelope.
//   kFallback    the conservative CONGEST worst case for pattern-oblivious
//                programs: one message per directed edge per round, T rounds.
//
// `congestion` is this algorithm's contribution max_e c(e) -- exact for
// kExact, a sound bound otherwise -- and `dilation` is its declared round
// budget, so scheduler budgets (Theorem 1.1's congestion + dilation * log n)
// can be derived before anything runs. docs/ANALYSIS.md has the semantics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "congest/pattern.hpp"
#include "congest/simulator.hpp"
#include "util/check.hpp"

namespace dasched::analysis {

enum class CertificateKind : std::uint8_t { kExact = 0, kUpperBound, kFallback };

const char* to_string(CertificateKind kind);

struct PatternCertificate {
  CertificateKind kind = CertificateKind::kFallback;
  std::string algorithm;  // DistributedAlgorithm::name()

  std::uint32_t rounds = 0;    // declared T: the dilation contribution
  std::uint32_t dilation = 0;  // == rounds (kept explicit for reports)

  /// max_e c(e): exact for kExact, else a sound upper bound.
  std::uint32_t congestion = 0;
  /// Per-(round, directed-edge) cell bound (1 in the CONGEST model).
  std::uint32_t per_cell_bound = 1;
  /// Per-directed-edge total bound over all rounds.
  std::uint32_t per_edge_bound = 0;
  /// Message total: exact for kExact, else an upper bound.
  std::uint64_t total_messages = 0;
  /// Last sending round: exact for kExact, else an upper bound (<= rounds).
  std::uint32_t last_message_round = 0;

  /// The derived load surface; populated iff kind == kExact.
  CommunicationPattern pattern;
  /// Per-node outputs; populated iff has_outputs (kExact shapes only).
  bool has_outputs = false;
  NodeOutputs outputs;

  bool exact() const { return kind == CertificateKind::kExact; }

  /// Repackages an exact certificate with outputs as the solo ground truth
  /// the scheduling stack consumes (ScheduleProblem::adopt_solo, the service
  /// profile cache) -- the "admission without execution" path. The caller
  /// still routes the result through the verifier gate, same as any adopted
  /// profile. The lvalue overload copies the output table and the pattern;
  /// the rvalue one moves them out and allocates nothing.
  SoloRunResult to_solo() const& {
    check_solo();
    return {outputs, pattern};
  }
  SoloRunResult to_solo() && {
    check_solo();
    return {std::move(outputs), std::move(pattern)};
  }

 private:
  void check_solo() const {
    DASCHED_CHECK_MSG(exact() && has_outputs,
                      "to_solo needs an exact certificate with outputs");
  }
};

}  // namespace dasched::analysis
