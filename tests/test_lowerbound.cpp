// Section 3 hard-instance tests: structure, oracle consistency, scheduling
// behaviour (the load anti-concentration the lower-bound proof exploits).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "lowerbound/hard_instance.hpp"
#include "congest/simulator.hpp"
#include "sched/baseline.hpp"
#include "sched/delay_schedule.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "util/fingerprint.hpp"

namespace dasched {
namespace {

TEST(HardInstance, SoloRunMatchesXorOracle) {
  const HardInstanceConfig cfg{.layers = 5, .width = 10, .algorithms = 3,
                               .participation = 0.4, .seed = 3};
  const auto g = make_layered(cfg.layers, cfg.width);
  auto problem = make_hard_instance(g, cfg);
  problem->run_solo();
  for (std::size_t a = 0; a < problem->size(); ++a) {
    const auto& algo = dynamic_cast<const HardInstanceAlgorithm&>(problem->algorithm(a));
    for (NodeId p = 1; p <= cfg.layers; ++p) {
      const auto& out = problem->solo(a).outputs[layered_spine(p)];
      EXPECT_EQ(out.at(0), algo.expected_spine_state(p)) << "alg " << a << " spine " << p;
      EXPECT_EQ(out.at(1), 1u);
    }
  }
}

TEST(HardInstance, DilationAndCongestionScaleAsDesigned) {
  const HardInstanceConfig cfg{.layers = 6, .width = 40, .algorithms = 24,
                               .participation = 0.25, .seed = 4};
  const auto g = make_layered(cfg.layers, cfg.width);
  auto problem = make_hard_instance(g, cfg);
  problem->run_solo();
  EXPECT_EQ(problem->dilation(), 2u * cfg.layers);
  // E[per-edge load] = k * q = 6; the max over 2*6*40 directed edge pairs
  // should be near the binomial tail but certainly within [mean, 5*mean].
  const double mean = cfg.algorithms * cfg.participation;
  EXPECT_GE(problem->congestion(), static_cast<std::uint32_t>(mean));
  EXPECT_LE(problem->congestion(), static_cast<std::uint32_t>(5 * mean));
}

TEST(HardInstance, SchedulersRemainCorrectOnHardFamily) {
  const HardInstanceConfig cfg{.layers = 4, .width = 12, .algorithms = 8,
                               .participation = 0.3, .seed = 5};
  const auto g = make_layered(cfg.layers, cfg.width);
  {
    auto problem = make_hard_instance(g, cfg);
    const auto seq = SequentialScheduler{}.run(*problem);
    EXPECT_TRUE(problem->verify(seq.exec).ok());
  }
  {
    auto problem = make_hard_instance(g, cfg);
    const auto greedy = GreedyScheduler{}.run(*problem);
    EXPECT_TRUE(problem->verify(greedy.exec).ok());
  }
  {
    auto problem = make_hard_instance(g, cfg);
    const auto shared = SharedRandomnessScheduler{}.run(*problem);
    EXPECT_TRUE(problem->verify(shared.exec).ok());
  }
}

TEST(HardInstance, DelayProfileMatchesExecutorLoads) {
  // The combinatorial analyzer must reproduce the executor's load profile
  // exactly for lockstep-delayed schedules.
  const HardInstanceConfig cfg{.layers = 4, .width = 10, .algorithms = 6,
                               .participation = 0.3, .seed = 6};
  const auto g = make_layered(cfg.layers, cfg.width);
  auto problem = make_hard_instance(g, cfg);
  problem->run_solo();

  const std::vector<std::uint32_t> delays = {0, 3, 1, 4, 2, 0};
  const auto profile = delay_load_profile(*problem, delays);

  Executor executor(g, {});
  const auto algos = problem->algorithm_ptrs();
  const auto schedule = ScheduleTable::from_fn(
      algos, g.num_nodes(), [&delays](std::size_t a, NodeId, std::uint32_t r) {
        return delays[a] + r - 1;
      });
  const auto exec = executor.run(algos, schedule);
  ASSERT_EQ(profile.num_phases(), exec.num_big_rounds);
  for (std::uint32_t t = 0; t < profile.num_phases(); ++t) {
    EXPECT_EQ(profile.max_load_per_phase[t], exec.max_load_per_big_round[t]) << t;
  }
  EXPECT_EQ(profile.adaptive_rounds(), exec.adaptive_physical_rounds());
  EXPECT_EQ(profile.total_messages, exec.total_messages);
}

// Digests of delay_load_profile (every phase's max load, the max and the
// message total) on two seeded problems, captured before the phase buckets
// moved to util/load_cells. Do not regenerate.
TEST(DelayLoadProfileGolden, MatchesPinnedDigests) {
  const auto digest = [](const LoadProfile& p) {
    Fingerprint fp;
    fp.mix(p.max_load_per_phase.size());
    for (const auto load : p.max_load_per_phase) fp.mix(load);
    return fp.mix(p.max_load).mix(p.total_messages).digest();
  };
  {
    const HardInstanceConfig cfg{.layers = 5, .width = 12, .algorithms = 10,
                                 .participation = 0.35, .seed = 6};
    const auto g = make_layered(cfg.layers, cfg.width);
    auto problem = make_hard_instance(g, cfg);
    problem->run_solo();
    const std::vector<std::uint32_t> delays = {0, 3, 1, 4, 2, 0, 7, 5, 1, 6};
    const auto profile = delay_load_profile(*problem, delays);
    EXPECT_EQ(digest(profile), 0x7de814b8e0e67d45ULL) << "hard: " << std::hex << digest(profile);
  }
  {
    Rng rng(11);
    const auto g = make_gnp_connected(150, 6.0 / 150, rng);
    auto problem = make_mixed_workload(g, 10, 4, 77);
    problem->run_solo();
    const auto delays = SharedRandomnessScheduler::draw_delays(77, problem->size(), 9, 4);
    const auto profile = delay_load_profile(*problem, delays);
    EXPECT_EQ(digest(profile), 0x4141f8651b4d3bbcULL) << "mixed: " << std::hex << digest(profile);
  }
}

TEST(HardInstance, ScaledConfigKeepsRatios) {
  for (const std::uint64_t n : {256ULL, 1024ULL, 4096ULL}) {
    const auto cfg = scaled_hard_instance_config(n, 7);
    EXPECT_GE(cfg.layers, 3u);
    EXPECT_GE(cfg.width, 8u);
    // k*q ~ 2L keeps congestion ~ dilation.
    const double kq = static_cast<double>(cfg.algorithms) * cfg.participation;
    EXPECT_NEAR(kq, 2.0 * cfg.layers, 0.3 * 2.0 * cfg.layers);
    // Node budget respected within a factor.
    const std::uint64_t nodes = cfg.layers + 1 + std::uint64_t{cfg.layers} * cfg.width;
    EXPECT_GE(nodes, n / 2);
    EXPECT_LE(nodes, 2 * n);
  }
}

TEST(HardInstance, NonMembersStaySilent) {
  const HardInstanceConfig cfg{.layers = 3, .width = 8, .algorithms = 1,
                               .participation = 0.5, .seed = 8};
  const auto g = make_layered(cfg.layers, cfg.width);
  auto problem = make_hard_instance(g, cfg);
  problem->run_solo();
  const auto& algo = dynamic_cast<const HardInstanceAlgorithm&>(problem->algorithm(0));
  for (NodeId i = 1; i <= cfg.layers; ++i) {
    const auto& s = algo.members()[i - 1];
    for (NodeId j = 0; j < cfg.width; ++j) {
      const NodeId u = layered_group_node(cfg.layers, cfg.width, i, j);
      const bool member = std::binary_search(s.begin(), s.end(), u);
      const auto& out = problem->solo(0).outputs[u];
      if (member) {
        ASSERT_EQ(out.size(), 2u);
        EXPECT_EQ(out[1], 1u);  // received the spine state
      } else {
        EXPECT_TRUE(out.empty());
      }
    }
  }
}

}  // namespace
}  // namespace dasched
