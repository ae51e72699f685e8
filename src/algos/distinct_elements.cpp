#include "algos/distinct_elements.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/algorithms.hpp"
#include "util/math.hpp"

namespace dasched {

bool DistinctElementsAlgorithm::marked(std::uint64_t seed, std::uint32_t threshold_index,
                                       std::uint32_t iteration, std::uint64_t value,
                                       double rho) {
  const double k = std::pow(rho, threshold_index);
  const double p = 1.0 - std::pow(2.0, -1.0 / k);
  const std::uint64_t h = splitmix64(
      seed_combine(seed, threshold_index, iteration, splitmix64(value)));
  return (static_cast<double>(h >> 11) * 0x1.0p-53) < p;
}

std::uint64_t DistinctElementsAlgorithm::fold_seed(
    const std::vector<std::uint64_t>& words) {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (const auto w : words) seed = seed_combine(seed, w);
  return seed;
}

DistinctElementsAlgorithm::DistinctElementsAlgorithm(
    const Graph& g, DistinctElementsParams params, std::vector<std::uint64_t> values,
    std::vector<std::vector<std::uint64_t>> node_seeds, std::uint64_t base_seed)
    : DistributedAlgorithm(base_seed),
      graph_(&g),
      params_(params),
      values_(std::move(values)),
      node_seeds_(std::move(node_seeds)) {
  DASCHED_CHECK(params_.radius >= 1);
  DASCHED_CHECK(params_.rho > 1.0);
  DASCHED_CHECK(params_.iterations >= 1);
  DASCHED_CHECK(values_.size() == g.num_nodes());
  DASCHED_CHECK(node_seeds_.size() == g.num_nodes());
  num_thresholds_ =
      params_.num_thresholds > 0
          ? params_.num_thresholds
          : static_cast<std::uint32_t>(
                std::ceil(std::log(static_cast<double>(std::max<NodeId>(2, g.num_nodes()))) /
                          std::log(params_.rho))) +
                1;
  const std::uint64_t experiments =
      static_cast<std::uint64_t>(num_thresholds_) * params_.iterations;
  words_ = static_cast<std::uint32_t>(ceil_div(experiments, 64));
  total_rounds_ = words_ * params_.radius;
}

namespace {

class DistinctElementsProgram final : public NodeProgram {
 public:
  DistinctElementsProgram(const DistinctElementsAlgorithm& algo, NodeId self,
                          std::uint64_t seed, std::uint64_t value)
      : algo_(algo), mask_(algo.words(), 0), pending_send_(algo.words(), true) {
    (void)self;
    // Own experiment bits.
    const auto& p = algo_.params();
    const std::uint32_t iters = p.iterations;
    for (std::uint32_t j = 0; j < algo_.num_thresholds(); ++j) {
      for (std::uint32_t t = 0; t < iters; ++t) {
        if (DistinctElementsAlgorithm::marked(seed, j, t, value, p.rho)) {
          const std::uint64_t bit = std::uint64_t{j} * iters + t;
          mask_[bit / 64] |= (std::uint64_t{1} << (bit % 64));
        }
      }
    }
  }

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    // Word w floods during rounds w*d+1 .. (w+1)*d: send on change (plus the
    // initial send); a set bit advances one hop per round, so the OR over
    // the d-ball is complete after d rounds.
    const std::uint32_t w = (ctx.vround() - 1) / algo_.params().radius;
    if (w < algo_.words() && pending_send_[w]) {
      pending_send_[w] = false;
      for (const auto& nb : ctx.neighbors()) {
        ctx.send(nb.neighbor, {w, mask_[w]});
      }
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    const auto& p = algo_.params();
    // Majority per threshold; the estimate index is the last threshold whose
    // majority of OR-indicators is 1 (monotone w.h.p.).
    std::uint32_t j_hat = 0;
    for (std::uint32_t j = 0; j < algo_.num_thresholds(); ++j) {
      std::uint32_t ones = 0;
      for (std::uint32_t t = 0; t < p.iterations; ++t) {
        const std::uint64_t bit = std::uint64_t{j} * p.iterations + t;
        if (mask_[bit / 64] & (std::uint64_t{1} << (bit % 64))) ++ones;
      }
      if (2 * ones > p.iterations) j_hat = j;
    }
    const auto estimate =
        static_cast<std::uint64_t>(std::llround(std::pow(p.rho, j_hat)));
    words.insert(words.end(), {j_hat, estimate});
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      const auto w = static_cast<std::uint32_t>(m.payload.at(0));
      const std::uint64_t merged = mask_[w] | m.payload.at(1);
      if (merged != mask_[w]) {
        mask_[w] = merged;
        pending_send_[w] = true;
      }
    }
  }

  const DistinctElementsAlgorithm& algo_;
  std::vector<std::uint64_t> mask_;
  std::vector<bool> pending_send_;
};

}  // namespace

NodeProgram& DistinctElementsAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<DistinctElementsProgram>(
      *this, node, fold_seed(node_seeds_[node]), values_[node]);
}

std::vector<std::uint64_t> exact_distinct_counts(const Graph& g,
                                                 const std::vector<std::uint64_t>& values,
                                                 std::uint32_t radius) {
  std::vector<std::uint64_t> counts(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = bfs_distances_capped(g, v, radius);
    std::unordered_set<std::uint64_t> distinct;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] != kUnreachable) distinct.insert(values[u]);
    }
    counts[v] = distinct.size();
  }
  return counts;
}

}  // namespace dasched
