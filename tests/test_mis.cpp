// Luby MIS tests, including the paper's Appendix A negative control: MIS is
// not Bellagio, so the wrapper's per-cluster seeds produce locally-valid but
// globally-inconsistent outputs -- measured as independence violations.
#include <gtest/gtest.h>

#include "algos/mis.hpp"
#include "congest/simulator.hpp"
#include "derand/bellagio.hpp"
#include "graph/generators.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/problem.hpp"
#include "util/math.hpp"

namespace dasched {
namespace {

struct MisRun {
  std::vector<std::uint8_t> decided;
  std::vector<std::uint8_t> in_mis;
};

MisRun extract(const NodeOutputs& outputs) {
  MisRun run;
  run.decided.reserve(outputs.size());
  run.in_mis.reserve(outputs.size());
  for (const OutputView out : outputs) {
    run.decided.push_back(static_cast<std::uint8_t>(out[LubyMisAlgorithm::kOutDecided]));
    run.in_mis.push_back(static_cast<std::uint8_t>(out[LubyMisAlgorithm::kOutInMis]));
  }
  return run;
}

TEST(LubyMis, ComputesAValidMisWithPrivateRandomness) {
  Rng rng(2);
  const Graph graphs[] = {make_gnp_connected(80, 0.08, rng), make_grid(8, 8),
                          make_complete(15), make_cycle(31)};
  for (const auto& g : graphs) {
    const auto phases = 2u * static_cast<std::uint32_t>(ceil_log2(g.num_nodes())) + 4;
    LubyMisAlgorithm algo(phases, {}, 7);
    const auto result = solo_run(g, algo);
    const auto run = extract(result.outputs);
    // All nodes decided (Theta(log n) phases suffice at these sizes).
    for (NodeId v = 0; v < g.num_nodes(); ++v) ASSERT_EQ(run.decided[v], 1u);
    const auto [indep, maximal] = check_mis(g, run.decided, run.in_mis);
    EXPECT_EQ(indep, 0u);
    EXPECT_EQ(maximal, 0u);
  }
}

TEST(LubyMis, SharedSeedIsDeterministicDifferentSeedsDiffer) {
  Rng rng(3);
  const auto g = make_gnp_connected(60, 0.1, rng);
  const std::vector<std::vector<std::uint64_t>> seed_a(g.num_nodes(), {11});
  const std::vector<std::vector<std::uint64_t>> seed_b(g.num_nodes(), {12});
  LubyMisAlgorithm a1(16, seed_a, 1);
  LubyMisAlgorithm a2(16, seed_a, 2);  // different base seed, same shared seed
  LubyMisAlgorithm b(16, seed_b, 1);
  const auto ra1 = solo_run(g, a1);
  const auto ra2 = solo_run(g, a2);
  const auto rb = solo_run(g, b);
  EXPECT_EQ(ra1.outputs, ra2.outputs);  // seeded variant ignores private rng
  EXPECT_NE(ra1.outputs, rb.outputs);   // different MIS per seed (not Bellagio!)
}

TEST(LubyMis, SchedulesFaithfully) {
  Rng rng(4);
  const auto g = make_gnp_connected(60, 0.08, rng);
  ScheduleProblem problem(g);
  for (std::uint64_t i = 0; i < 6; ++i) {
    problem.add(std::make_unique<LubyMisAlgorithm>(14, std::vector<std::vector<std::uint64_t>>{}, 40 + i));
  }
  const auto out = SharedRandomnessScheduler{}.run(problem);
  EXPECT_TRUE(problem.verify(out.exec).ok());
}

TEST(LubyMis, BellagioWrapperProducesConflicts) {
  // The Appendix A caveat, measured: wrap seeded Luby with per-cluster seeds.
  // Each layer's execution is a valid MIS *of its own seed*, but nodes adopt
  // outputs from different layers, so stitched outputs violate independence
  // or maximality somewhere (with enough boundary structure). Contrast: a
  // globally-seeded run stitches perfectly.
  // High diameter + small radius so each layer has many clusters and hence
  // many boundaries where adjacent nodes adopt different layers' seeds.
  const auto g = make_cycle(400);
  const std::uint32_t phases = 4;

  BellagioConfig cfg;
  cfg.seed = 5;
  cfg.num_layers = 8;
  cfg.radius_factor = 1.0;
  const auto wrapped = run_bellagio(
      g, 2 * phases,
      [&](const std::vector<std::vector<std::uint64_t>>& node_seeds) {
        return std::make_unique<LubyMisAlgorithm>(phases, node_seeds, 9);
      },
      cfg);

  std::uint64_t conflicts = 0;
  bool any_valid = false;
  std::vector<std::uint8_t> decided(g.num_nodes(), 0);
  std::vector<std::uint8_t> in_mis(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!wrapped.valid[v]) continue;
    any_valid = true;
    decided[v] = static_cast<std::uint8_t>(wrapped.outputs[v][LubyMisAlgorithm::kOutDecided]);
    in_mis[v] = static_cast<std::uint8_t>(wrapped.outputs[v][LubyMisAlgorithm::kOutInMis]);
  }
  ASSERT_TRUE(any_valid);
  const auto [indep, maximal] = check_mis(g, decided, in_mis);
  conflicts = indep + maximal;
  // MIS is not Bellagio: stitching per-cluster executions breaks somewhere.
  EXPECT_GT(conflicts, 0u)
      << "unexpectedly consistent -- did MIS become pseudo-deterministic?";

  // Control: identical global seeds stitch to a valid MIS.
  // (4 phases leave some cycle nodes undecided; check_mis only judges the
  // decided ones, which is exactly the stitching property at issue.)
  const std::vector<std::vector<std::uint64_t>> global(g.num_nodes(), {77});
  LubyMisAlgorithm algo(phases, global, 9);
  const auto solo = solo_run(g, algo);
  const auto run = extract(solo.outputs);
  const auto [gi, gm] = check_mis(g, run.decided, run.in_mis);
  EXPECT_EQ(gi, 0u);
  EXPECT_EQ(gm, 0u);
}

}  // namespace
}  // namespace dasched
