#include "derand/bellagio.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasched {

BellagioResult run_bellagio(const Graph& g, std::uint32_t algorithm_rounds,
                            const SeededAlgorithmFactory& factory,
                            const BellagioConfig& cfg) {
  DASCHED_CHECK(algorithm_rounds >= 1);
  const NodeId n = g.num_nodes();
  BellagioResult result;

  // --- Lemma 4.2 clustering at radius scale Theta(T) and Lemma 4.3 seed
  // sharing, one CONGEST run. ---
  ClusteringConfig ccfg;
  ccfg.seed = cfg.seed;
  ccfg.dilation = algorithm_rounds;
  ccfg.radius_factor = cfg.radius_factor;
  if (cfg.num_layers > 0) ccfg.num_layers = cfg.num_layers;
  const ClusteringBuilder builder(ccfg);
  RandSharingConfig scfg;
  scfg.seed = cfg.seed;
  const RandomnessSharing sharing(scfg);
  Precomputation pre;
  if (cfg.central_precomputation) {
    pre.clustering = builder.build_central(g);
    pre.seeds = sharing.run_central(g, pre.clustering);
  } else {
    pre = sharing.run_distributed(g, builder);
  }
  const Clustering& clustering = pre.clustering;
  const SharedSeeds& seeds = pre.seeds;
  result.precomputation_rounds = clustering.precomputation_rounds + seeds.rounds;
  result.num_layers = static_cast<std::uint32_t>(clustering.num_layers());

  // --- One truncated copy per layer, run back to back. ---
  std::vector<std::unique_ptr<DistributedAlgorithm>> copies;
  std::vector<const DistributedAlgorithm*> ptrs;
  for (std::size_t l = 0; l < clustering.num_layers(); ++l) {
    copies.push_back(factory(seeds.layers[l].words));
    DASCHED_CHECK_MSG(copies.back()->rounds() == algorithm_rounds,
                      "factory must produce the declared round count");
    ptrs.push_back(copies.back().get());
  }

  Executor executor(g, {});
  const std::uint32_t t = algorithm_rounds;
  const auto schedule = ScheduleTable::from_fn(
      ptrs, g.num_nodes(), [&clustering, t](std::size_t l, NodeId v, std::uint32_t r) {
        // Layer l occupies big-rounds [l*T, (l+1)*T); the Lemma 4.4
        // truncation keeps boundary-cut executions causally closed.
        if (clustering.layers[l].h_prime[v] + 1 < r) return kNeverScheduled;
        return static_cast<std::uint32_t>(l) * t + (r - 1);
      });
  const auto exec = executor.run(ptrs, schedule);
  DASCHED_CHECK(exec.causality_violations == 0);
  result.execution_rounds = static_cast<std::uint64_t>(result.num_layers) * t;

  // --- Each node adopts the output of a fully-containing layer. ---
  result.valid.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    OutputView adopted;
    for (std::size_t l = 0; l < clustering.num_layers(); ++l) {
      if (clustering.layers[l].h_prime[v] >= algorithm_rounds && exec.completed[l][v]) {
        adopted = exec.outputs[l][v];
        result.valid[v] = 1;
        break;
      }
    }
    result.outputs.push_back(adopted);
    if (!result.valid[v]) ++result.uncovered_nodes;
  }
  return result;
}

}  // namespace dasched
