#include "sched/problem.hpp"

#include <algorithm>

#include "congest/simulator.hpp"
#include "util/check.hpp"

namespace dasched {

void ScheduleProblem::add(std::unique_ptr<DistributedAlgorithm> algorithm) {
  DASCHED_CHECK_MSG(solo_.empty(), "add algorithms before run_solo()");
  DASCHED_CHECK(algorithm != nullptr);
  DASCHED_CHECK(algorithm->rounds() >= 1);
  algorithms_.push_back(std::move(algorithm));
}

std::vector<const DistributedAlgorithm*> ScheduleProblem::algorithm_ptrs() const {
  std::vector<const DistributedAlgorithm*> ptrs;
  ptrs.reserve(algorithms_.size());
  for (const auto& a : algorithms_) ptrs.push_back(a.get());
  return ptrs;
}

void ScheduleProblem::run_solo() {
  if (solo_done()) return;
  solo_.reserve(algorithms_.size());
  SoloRunner runner(*graph_);
  for (const auto& a : algorithms_) {
    solo_.push_back(std::make_shared<const SoloRunResult>(runner.run(*a)));
  }
  congestion_ = sum_congestion();
}

void ScheduleProblem::adopt_solo(std::vector<std::shared_ptr<const SoloRunResult>> solo) {
  DASCHED_CHECK_MSG(solo_.empty(), "adopt_solo: solo results already present");
  DASCHED_CHECK_EQ(solo.size(), algorithms_.size(),
                   "adopt_solo: one solo result per algorithm, in order");
  DASCHED_CHECK_MSG(!solo.empty(), "adopt_solo: empty result set");
  for (const auto& s : solo) DASCHED_CHECK_MSG(s != nullptr, "adopt_solo: null solo result");
  solo_ = std::move(solo);
  congestion_ = sum_congestion();
}

const SoloRunResult& ScheduleProblem::solo(std::size_t a) const {
  DASCHED_CHECK_MSG(solo_done(), "call run_solo() first");
  return *solo_[a];
}

std::uint32_t ScheduleProblem::dilation() const {
  std::uint32_t d = 0;
  for (const auto& a : algorithms_) d = std::max(d, a->rounds());
  return d;
}

std::uint32_t ScheduleProblem::congestion() const {
  DASCHED_CHECK_MSG(solo_done(), "call run_solo() first");
  return congestion_;
}

std::uint32_t ScheduleProblem::sum_congestion() const {
  std::vector<std::uint32_t> loads(graph_->num_directed_edges(), 0);
  // A profile recorded on another graph may be shorter; only its common
  // prefix is read, and check_schedule reports the dimension mismatch.
  for (const auto& s : solo_) {
    const auto edges = std::min<std::size_t>(loads.size(), s->pattern.num_directed_edges());
    for (std::uint32_t d = 0; d < edges; ++d) loads[d] += s->pattern.edge_load(d);
  }
  std::uint32_t congestion = 0;
  for (const auto load : loads) congestion = std::max(congestion, load);
  return congestion;
}

std::vector<analysis::PatternCertificate> ScheduleProblem::analyze_static() const {
  std::vector<analysis::PatternCertificate> certs;
  certs.reserve(algorithms_.size());
  for (const auto& a : algorithms_) certs.push_back(analysis::analyze(*graph_, *a));
  return certs;
}

std::uint32_t ScheduleProblem::certified_congestion_bound() const {
  // Sum per-edge loads where certificates carry the exact surface, and add
  // each non-exact certificate's per-edge bound uniformly -- the sum of sound
  // per-edge bounds dominates every realizable combined load.
  std::vector<std::uint64_t> loads(graph_->num_directed_edges(), 0);
  std::uint64_t envelope = 0;
  for (const auto& cert : analyze_static()) {
    if (cert.exact()) {
      for (std::uint32_t d = 0; d < loads.size(); ++d) loads[d] += cert.pattern.edge_load(d);
    } else {
      envelope += cert.per_edge_bound;
    }
  }
  std::uint64_t bound = 0;
  for (const auto load : loads) bound = std::max(bound, load);
  bound += envelope;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(bound, ~std::uint32_t{0}));
}

std::uint32_t ScheduleProblem::trivial_lower_bound() const {
  return std::max(congestion(), dilation());
}

std::uint64_t ScheduleProblem::total_messages() const {
  DASCHED_CHECK_MSG(solo_done(), "call run_solo() first");
  std::uint64_t total = 0;
  for (const auto& s : solo_) total += s->pattern.total_messages();
  return total;
}

ScheduleProblem::Verification ScheduleProblem::verify(const ExecutionResult& exec) const {
  DASCHED_CHECK_MSG(solo_done(), "call run_solo() first");
  DASCHED_CHECK(exec.outputs.size() == algorithms_.size());
  Verification v;
  v.causality_violations = exec.causality_violations;
  for (std::size_t a = 0; a < algorithms_.size(); ++a) {
    for (NodeId node = 0; node < graph_->num_nodes(); ++node) {
      if (!exec.completed[a][node]) {
        ++v.incomplete_nodes;
      } else if (exec.outputs[a][node] != solo_[a]->outputs[node]) {
        ++v.mismatched_outputs;
      }
    }
  }
  return v;
}

}  // namespace dasched
