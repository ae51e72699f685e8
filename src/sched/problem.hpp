// The Distributed Algorithm Scheduling (DAS) problem instance (Section 2).
//
// A problem is a network plus k independent black-box algorithms A_1..A_k.
// The two parameters every bound in the paper is stated in:
//
//   dilation   = max_i (rounds of A_i)
//   congestion = max over directed edges e of sum_i c_i(e), where c_i(e) is
//                the number of rounds in which A_i sends a message over e
//
// are computed here from solo executions. Solo runs also provide the
// ground-truth outputs: the DAS correctness requirement is that under any
// schedule "each node outputs the same value as if that algorithm was run
// alone", which verify() checks bit-for-bit.
//
// Note the paper's upper bounds assume nodes know constant-factor
// approximations of congestion and dilation; schedulers in this repo read the
// exact values from here, and tests exercise robustness to misestimates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "congest/executor.hpp"
#include "congest/simulator.hpp"
#include "graph/graph.hpp"

namespace dasched {

class ScheduleProblem {
 public:
  explicit ScheduleProblem(const Graph& g) : graph_(&g) {}

  void add(std::unique_ptr<DistributedAlgorithm> algorithm);

  std::size_t size() const { return algorithms_.size(); }
  const Graph& graph() const { return *graph_; }
  const DistributedAlgorithm& algorithm(std::size_t i) const { return *algorithms_[i]; }
  std::vector<const DistributedAlgorithm*> algorithm_ptrs() const;

  /// Runs every algorithm alone, recording outputs and patterns. Idempotent.
  void run_solo();

  /// Adopts previously recorded solo results (one non-null result per added
  /// algorithm, in order) instead of simulating them -- the service profile
  /// cache's path for repeat jobs. The results are immutable and shared, not
  /// copied: a cached profile, the problems built from it and the verifier
  /// runs over them all read one instance. After this, solo_done() is true
  /// and run_solo() is a no-op. The results are *trusted here*: the static
  /// verifier's profile-consistency check (verify/schedule_verifier.cpp) is
  /// the gate that catches adopted profiles disagreeing with the declared
  /// algorithms (a stale or poisoned cache entry), so route adopted problems
  /// through check_schedule before executing them.
  void adopt_solo(std::vector<std::shared_ptr<const SoloRunResult>> solo);
  bool solo_done() const { return !solo_.empty(); }
  /// Algorithm `a`'s solo run. Requires solo_done().
  const SoloRunResult& solo(std::size_t a) const;
  /// The shared solo results themselves, one per algorithm (empty before
  /// run_solo() or adopt_solo()).
  std::span<const std::shared_ptr<const SoloRunResult>> solo_results() const {
    return solo_;
  }

  /// max_i rounds(A_i). Available without solo runs.
  std::uint32_t dilation() const;

  /// max_e sum_i c_i(e) over directed edges. Requires run_solo(). Summed
  /// once when the solo results are set (they are never replaced), so a
  /// call is a load.
  std::uint32_t congestion() const;

  /// Static certificates for every algorithm (analysis/analyzer.hpp), derived
  /// from the declared footprints alone -- no solo runs, nothing executed.
  std::vector<analysis::PatternCertificate> analyze_static() const;

  /// Sound upper bound on congestion() from the static certificates: exact
  /// when every algorithm's footprint is exact, conservative otherwise.
  /// Available without run_solo() -- this is what discharges the paper's
  /// "known congestion/dilation" assumption for budget derivation.
  std::uint32_t certified_congestion_bound() const;

  /// The trivial lower bound max(congestion, dilation) >= (c+d)/2.
  std::uint32_t trivial_lower_bound() const;

  std::uint64_t total_messages() const;

  struct Verification {
    std::uint64_t incomplete_nodes = 0;   // (alg, node) pairs not run to completion
    std::uint64_t mismatched_outputs = 0; // completed but output != solo
    std::uint64_t causality_violations = 0;
    bool ok() const {
      return incomplete_nodes == 0 && mismatched_outputs == 0 &&
             causality_violations == 0;
    }
  };

  /// Compares an execution against the solo ground truth.
  Verification verify(const ExecutionResult& exec) const;

 private:
  std::uint32_t sum_congestion() const;

  const Graph* graph_;
  std::vector<std::unique_ptr<DistributedAlgorithm>> algorithms_;
  std::vector<std::shared_ptr<const SoloRunResult>> solo_;
  std::uint32_t congestion_ = 0;  // sum_congestion() of solo_
};

}  // namespace dasched
