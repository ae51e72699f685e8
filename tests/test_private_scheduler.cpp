// Theorem 4.1 end-to-end tests: with only private randomness, the full
// pipeline (clustering -> local randomness sharing -> block delays -> dedup
// execution) must reproduce every node's solo outputs, with zero causality
// violations, within the paper's length budgets.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/problem.hpp"
#include "sched/workloads.hpp"
#include "util/fingerprint.hpp"
#include "precompute_cases.hpp"

namespace dasched {
namespace {

PrivateSchedulerConfig test_config(std::uint64_t seed, std::uint32_t layers = 12) {
  PrivateSchedulerConfig cfg;
  cfg.seed = seed;
  cfg.clustering.num_layers = layers;
  return cfg;
}

struct PScenario {
  std::string name;
  std::function<Graph()> graph;
  std::function<std::unique_ptr<ScheduleProblem>(const Graph&)> workload;
};

std::vector<PScenario>& pscenarios() {
  static auto* cases = new std::vector<PScenario>{
      {"bcast_grid",
       [] { return make_grid(6, 6); },
       [](const Graph& g) { return make_broadcast_workload(g, 8, 3, 51); }},
      {"bfs_gnp",
       [] {
         Rng rng(52);
         return make_gnp_connected(60, 0.08, rng);
       },
       [](const Graph& g) { return make_bfs_workload(g, 6, 3, 52); }},
      {"mixed_cycle",
       [] { return make_cycle(36); },
       [](const Graph& g) { return make_mixed_workload(g, 6, 3, 53); }},
      {"routing_grid",
       [] { return make_grid(5, 6); },
       [](const Graph& g) { return make_routing_workload(g, 10, 54); }},
  };
  return *cases;
}

class PrivateSchedulerOnScenarios : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrivateSchedulerOnScenarios, FullyDistributedPipelineIsCorrect) {
  const auto& sc = pscenarios()[GetParam()];
  const auto g = sc.graph();
  auto problem = sc.workload(g);
  const auto out = PrivateRandomnessScheduler(test_config(1)).run(*problem);

  // Theory: with Theta(log n) layers every node's dilation-ball is covered
  // w.h.p.; with these test sizes and 12 layers this always holds for the
  // fixed seeds used.
  EXPECT_EQ(out.uncovered_nodes, 0u) << sc.name;
  EXPECT_EQ(out.incomplete_seed_nodes, 0u) << sc.name;
  EXPECT_EQ(out.exec.causality_violations, 0u) << sc.name;
  const auto v = problem->verify(out.exec);
  EXPECT_TRUE(v.ok()) << sc.name << ": incomplete " << v.incomplete_nodes
                      << " mismatched " << v.mismatched_outputs;
}

TEST_P(PrivateSchedulerOnScenarios, CentralShortcutsAgreeWithDistributed) {
  const auto& sc = pscenarios()[GetParam()];
  const auto g = sc.graph();

  auto p1 = sc.workload(g);
  auto cfg = test_config(2);
  const auto distributed = PrivateRandomnessScheduler(cfg).run(*p1);

  auto p2 = sc.workload(g);
  cfg.central_precomputation = true;
  const auto central = PrivateRandomnessScheduler(cfg).run(*p2);

  // Identical randomness derivations => identical schedules and loads.
  EXPECT_EQ(distributed.exec.num_big_rounds, central.exec.num_big_rounds);
  EXPECT_EQ(distributed.exec.total_messages, central.exec.total_messages);
  EXPECT_EQ(distributed.exec.max_load_per_big_round, central.exec.max_load_per_big_round);
  EXPECT_EQ(distributed.schedule_rounds, central.schedule_rounds);
  // Only the precomputation cost differs (central oracles are free).
  EXPECT_GT(distributed.precomputation_rounds, 0u);
  EXPECT_EQ(central.precomputation_rounds, 0u);
}

TEST_P(PrivateSchedulerOnScenarios, CorrectAcrossSeeds) {
  const auto& sc = pscenarios()[GetParam()];
  const auto g = sc.graph();
  for (std::uint64_t seed : {3ULL, 4ULL, 5ULL}) {
    auto problem = sc.workload(g);
    auto cfg = test_config(seed);
    cfg.central_precomputation = true;  // keep runtime low; equivalence tested above
    const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
    if (out.uncovered_nodes == 0) {
      EXPECT_TRUE(problem->verify(out.exec).ok()) << sc.name << " seed " << seed;
    }
    EXPECT_EQ(out.exec.causality_violations, 0u) << sc.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, PrivateSchedulerOnScenarios,
                         ::testing::Range<std::size_t>(0, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return pscenarios()[info.param].name;
                         });

TEST(PrivateScheduler, PrecomputationBudgetMatchesLemmas) {
  // Pre-computation, one run for all layers:
  //   H + 3 * layers * s + slack          [Lemma 4.3 token phase]
  //   + ceil(layers / 4) + dilation       [Lemma 4.2 announce + boundary BFS]
  const auto g = make_grid(6, 6);
  auto problem = make_broadcast_workload(g, 6, 3, 61);
  problem->run_solo();
  auto cfg = test_config(6, 8);
  cfg.sharing.words_per_seed = 5;
  cfg.sharing.slack_rounds = 4;
  const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
  const std::uint64_t d = problem->dilation();
  const std::uint64_t expected = (out.hop_cap + 3ULL * 8 * 5 + 4) + (8 / 4 + d);
  EXPECT_EQ(out.precomputation_rounds, expected);
}

/// The executed Thm 4.1 table slot by slot, the execution's digest and the
/// schedule's length and coverage -- everything but the precomputation's
/// round count.
std::uint64_t private_schedule_digest(const PrivateScheduleOutcome& out) {
  Fingerprint fp;
  const auto& t = out.schedule;
  fp.mix(t.num_algorithms()).mix(t.num_nodes());
  for (std::size_t a = 0; a < t.num_algorithms(); ++a) {
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      for (const auto slot : t.row(a, v)) fp.mix(slot);
    }
  }
  fp.mix(result_fingerprint(out.exec)).mix(out.schedule_rounds).mix(out.delay_support);
  fp.mix(out.num_layers).mix(out.hop_cap).mix(out.min_coverage).mix(out.uncovered_nodes);
  fp.mix(out.incomplete_seed_nodes);
  return fp.digest();
}

// Thm 4.1 schedules built on the distributed precomputation: the four
// scenarios at seed 1, and das_batch problems 0 and 1 at benchmark seed 1.
// Captured when every layer ran its own clustering and sharing runs. Do not
// regenerate: schedules depend on the words and the clustering, not on the
// rounds the precomputation spends.
TEST(PrivateScheduleGolden, DistributedPrecomputationMatchesPinnedDigests) {
  const std::uint64_t kScenarios[] = {
      0x955a617db3040988ULL,  // bcast_grid
      0x282c7ea6ba620974ULL,  // bfs_gnp
      0xa5a735cca5f87a88ULL,  // mixed_cycle
      0x2b780773e7fe4087ULL,  // routing_grid
  };
  for (std::size_t i = 0; i < pscenarios().size(); ++i) {
    const auto& sc = pscenarios()[i];
    const auto g = sc.graph();
    auto problem = sc.workload(g);
    const auto d =
        private_schedule_digest(PrivateRandomnessScheduler(test_config(1)).run(*problem));
    EXPECT_EQ(d, kScenarios[i]) << sc.name << " 0x" << std::hex << d;
  }
  const std::uint64_t kDasBatch[] = {0x1b6e83f2f374ee63ULL, 0x5c6287642bc43306ULL};
  for (std::size_t i = 0; i < std::size(kDasBatch); ++i) {
    const auto p = testing_cases::das_batch_problem(1, i);
    auto problem = make_mixed_workload(p.graph, 24, 3, p.seed);
    PrivateSchedulerConfig cfg;
    cfg.seed = p.seed;
    const auto d = private_schedule_digest(PrivateRandomnessScheduler(cfg).run(*problem));
    EXPECT_EQ(d, kDasBatch[i]) << "das_batch " << i << " 0x" << std::hex << d;
  }
}

TEST(PrivateScheduler, DelaysAreClusterConsistent) {
  const auto g = make_grid(6, 6);
  auto problem = make_mixed_workload(g, 6, 3, 62);
  problem->run_solo();

  ClusteringConfig ccfg;
  ccfg.seed = 7;
  ccfg.dilation = problem->dilation();
  ccfg.num_layers = 6;
  const auto clustering = ClusteringBuilder(ccfg).build_central(g);
  RandSharingConfig scfg;
  scfg.seed = 7;
  const auto seeds = RandomnessSharing(scfg).run_central(g, clustering);

  auto cfg = test_config(7, 6);
  std::uint32_t support = 0;
  const auto delay =
      PrivateRandomnessScheduler(cfg).compute_delays(*problem, clustering, seeds, &support);
  EXPECT_GE(support, 1u);
  for (std::size_t l = 0; l < clustering.num_layers(); ++l) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        if (clustering.layers[l].center[u] == clustering.layers[l].center[v]) {
          EXPECT_EQ(delay[l][u], delay[l][v]) << "layer " << l;
        }
      }
      for (std::size_t a = 0; a < problem->size(); ++a) {
        EXPECT_LT(delay[l][u][a], support);
      }
    }
  }
}

TEST(PrivateScheduler, UniformFullDelaysAlsoCorrectButLonger) {
  // The paper's "simpler solution" (uniform delays over [congestion]
  // big-rounds) is correct too; the block distribution should not lose to it.
  const auto g = make_grid(6, 6);

  auto p_block = make_broadcast_workload(g, 10, 3, 63);
  auto cfg = test_config(8);
  cfg.central_precomputation = true;
  const auto block = PrivateRandomnessScheduler(cfg).run(*p_block);
  ASSERT_EQ(block.uncovered_nodes, 0u);
  EXPECT_TRUE(p_block->verify(block.exec).ok());

  auto p_uni = make_broadcast_workload(g, 10, 3, 63);
  cfg.delay_kind = DelayKind::kUniformFull;
  const auto uniform = PrivateRandomnessScheduler(cfg).run(*p_uni);
  EXPECT_TRUE(p_uni->verify(uniform.exec).ok());
}

TEST(PrivateScheduler, NoDedupLoadsDominateDedupLoads) {
  // The E6 ablation invariant: without first-copy-wins dedup, per-big-round
  // loads can only grow.
  const auto g = make_grid(6, 6);
  auto problem = make_broadcast_workload(g, 8, 3, 64);
  problem->run_solo();

  ClusteringConfig ccfg;
  ccfg.seed = 9;
  ccfg.dilation = problem->dilation();
  ccfg.num_layers = 8;
  const auto clustering = ClusteringBuilder(ccfg).build_central(g);
  const auto seeds = RandomnessSharing({.seed = 9}).run_central(g, clustering);

  auto cfg = test_config(9, 8);
  const PrivateRandomnessScheduler sched(cfg);
  std::uint32_t support = 0;
  const auto delay = sched.compute_delays(*problem, clustering, seeds, &support);
  const auto nodedup = PrivateRandomnessScheduler::no_dedup_loads(*problem, clustering, delay);

  std::uint64_t total_nodedup = 0;
  for (const auto x : nodedup) total_nodedup += x;

  // Run the real (dedup) schedule with the same clustering/seeds.
  cfg.central_precomputation = true;
  cfg.seed = 9;
  auto problem2 = make_broadcast_workload(g, 8, 3, 64);
  const auto out = PrivateRandomnessScheduler(cfg).run(*problem2);
  std::uint64_t total_dedup = 0;
  for (const auto x : out.exec.max_load_per_big_round) total_dedup += x;

  EXPECT_GE(total_nodedup, total_dedup);
}

// Digests of the E6 ablation's no-dedup per-big-round max loads on two seeded
// problems, captured before the dense T x m grid moved to util/load_cells.
// Do not regenerate.
TEST(NoDedupLoadsGolden, MatchesPinnedDigests) {
  const auto digest = [](const ScheduleProblem& problem, std::uint64_t seed,
                         std::uint32_t layers) {
    ClusteringConfig ccfg;
    ccfg.seed = seed;
    ccfg.dilation = problem.dilation();
    ccfg.num_layers = layers;
    const auto clustering = ClusteringBuilder(ccfg).build_central(problem.graph());
    const auto seeds = RandomnessSharing({.seed = seed}).run_central(problem.graph(), clustering);
    std::uint32_t support = 0;
    const auto delay = PrivateRandomnessScheduler(test_config(seed, layers))
                           .compute_delays(problem, clustering, seeds, &support);
    const auto loads = PrivateRandomnessScheduler::no_dedup_loads(problem, clustering, delay);
    Fingerprint fp;
    fp.mix(loads.size());
    for (const auto x : loads) fp.mix(x);
    return fp.digest();
  };
  {
    const auto g = make_grid(6, 6);
    auto problem = make_broadcast_workload(g, 8, 3, 64);
    problem->run_solo();
    const auto d = digest(*problem, 9, 8);
    EXPECT_EQ(d, 0x5583feab58cc4881ULL) << "grid: " << std::hex << d;
  }
  {
    Rng rng(9);
    const auto g = make_gnp_connected(50, 0.1, rng);
    auto problem = make_mixed_workload(g, 6, 3, 3);
    problem->run_solo();
    const auto d = digest(*problem, 4, 12);
    EXPECT_EQ(d, 0x856340377fb00b47ULL) << "gnp: " << std::hex << d;
  }
}

}  // namespace
}  // namespace dasched
