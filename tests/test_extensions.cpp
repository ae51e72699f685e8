// Tests for the extension features: the global-sharing baseline (leader
// election + seed broadcast) and the doubling technique for unknown
// congestion.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sched/doubling.hpp"
#include "sched/global_sharing.hpp"
#include "sched/workloads.hpp"
#include "util/fingerprint.hpp"

namespace dasched {
namespace {

Graph make_gnp_connected_helper() {
  Rng rng(99);
  return make_gnp_connected(200, 0.15, rng);  // diameter ~2-3
}

TEST(GlobalSharing, CorrectOnVariousGraphs) {
  Rng rng(4);
  const Graph graphs[] = {make_path(40), make_grid(6, 6),
                          make_gnp_connected(60, 0.08, rng)};
  for (const auto& g : graphs) {
    auto problem = make_mixed_workload(g, 6, 3, 9);
    GlobalSharingConfig cfg;
    cfg.seed = 5;
    const auto out = GlobalSharingScheduler(cfg).run(*problem);
    EXPECT_TRUE(out.sharing_complete);
    EXPECT_TRUE(problem->verify(out.schedule.exec).ok());
    // Election + broadcast needs at least the diameter.
    EXPECT_GE(out.precomputation_rounds, exact_diameter(g));
  }
}

TEST(GlobalSharing, PrecomputationScalesWithDiameterNotDilation) {
  // On a path, the global approach pays ~2*diameter; Theorem 4.1's local
  // sharing pays O(dilation log^2 n) -- independent of the diameter. This is
  // the motivating comparison of the paper's Section 1 (and bench E10).
  const auto short_diam = make_gnp_connected_helper();
  auto p1 = make_mixed_workload(short_diam, 6, 3, 9);
  const auto low = GlobalSharingScheduler(GlobalSharingConfig{}).run(*p1);

  const auto path = make_path(200);  // diameter 199, same dilation
  auto p2 = make_mixed_workload(path, 6, 3, 9);
  const auto high = GlobalSharingScheduler(GlobalSharingConfig{}).run(*p2);

  EXPECT_GT(high.precomputation_rounds, 3 * low.precomputation_rounds);
}

// Pins the seed broadcast end to end: the leader's privately drawn words
// (folded into the shared seed every node computes), the Thm 1.1 delays and
// big-round table they select, and the scheduled execution, on three seeded
// problems at threads 0 and 4.
TEST(GlobalSharingGolden, SeedBroadcastAndScheduleMatchPinnedDigest) {
  constexpr std::uint64_t kGolden = 0x64dfc879e3f144fe;
  for (const std::uint32_t threads : {0u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Rng rng(31);
    const Graph graphs[] = {make_grid(6, 6), make_gnp_connected(80, 0.06, rng), make_path(30)};
    Fingerprint fp;
    for (std::uint64_t i = 0; i < 3; ++i) {
      auto problem = make_mixed_workload(graphs[i], 8, 3, 21 + i);
      GlobalSharingConfig cfg;
      cfg.seed = 500 + i;
      cfg.scheduler.num_threads = threads;
      const auto out = GlobalSharingScheduler(cfg).run(*problem);
      EXPECT_TRUE(out.sharing_complete);
      EXPECT_TRUE(problem->verify(out.schedule.exec).ok());
      fp.mix(out.shared_seed).mix(out.precomputation_rounds);
      fp.mix(out.schedule.phase_len).mix(out.schedule.delay_range);
      for (const auto d : out.schedule.delays) fp.mix(d);
      for (const auto t : out.schedule.schedule.flat()) fp.mix(t);
      fp.mix(out.schedule.schedule_rounds).mix(result_fingerprint(out.schedule.exec));
    }
    EXPECT_EQ(fp.digest(), kGolden) << std::hex << "0x" << fp.digest();
  }
}

TEST(Doubling, ConvergesAndVerifies) {
  Rng rng(6);
  const auto g = make_gnp_connected(80, 0.06, rng);
  auto problem = make_mixed_workload(g, 12, 4, 13);
  const auto out = run_with_doubling(*problem);
  EXPECT_TRUE(problem->verify(out.final.exec).ok());
  EXPECT_GE(out.attempts, 1u);
  // Geometric waste: total <= a small multiple of the successful attempt.
  EXPECT_LE(out.total_rounds, 4 * out.final.fixed.physical_rounds + out.wasted_rounds);
  EXPECT_EQ(out.final.fixed.overflowing_phases, 0u);
}

TEST(Doubling, EstimateTracksTrueCongestion) {
  // With a heavy workload the first guesses must fail; the successful guess
  // lands within a constant factor of the true congestion (here: not more
  // than 4x above it, not absurdly below).
  Rng rng(7);
  const auto g = make_gnp_connected(80, 0.06, rng);
  auto problem = make_mixed_workload(g, 32, 4, 14);
  problem->run_solo();
  const auto c = problem->congestion();
  const auto out = run_with_doubling(*problem);
  EXPECT_TRUE(problem->verify(out.final.exec).ok());
  EXPECT_LE(out.successful_estimate, 4 * c);
  EXPECT_GE(out.attempts, 2u);  // c >> 1 here, so guess 1 cannot fit
}

TEST(Doubling, CheapWorkloadSucceedsImmediately) {
  // A single low-congestion algorithm fits at the first guess.
  const auto g = make_grid(6, 6);
  auto problem = make_bfs_workload(g, 1, 3, 5);
  const auto out = run_with_doubling(*problem);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.wasted_rounds, 0u);
  EXPECT_TRUE(problem->verify(out.final.exec).ok());
}

}  // namespace
}  // namespace dasched
