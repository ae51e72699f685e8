// Communication-pattern tests (Section 2): time-expanded footprints built from
// counted messages, their load surface, congestion combination (ScheduleProblem::congestion), and
// the simulation-mapping validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "congest/pattern.hpp"
#include "congest/schedule_table.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/problem.hpp"
#include "sched/workloads.hpp"
#include "util/load_cells.hpp"

namespace dasched {
namespace {

/// Big-round assignment for a node's virtual rounds (Section 2's simulation
/// mapping f, restricted to lockstep-per-node schedules): returns the
/// big-round in which node v executes virtual round r, or kNeverScheduled.
using NodeRoundTime =
    std::function<std::uint32_t(NodeId v, std::uint32_t vround)>;

/// Checks that a schedule is a valid *simulation* of the pattern in the
/// paper's Section 2 sense: causal precedence is preserved, i.e. every
/// message (u -> v, sent in round r) is transmitted strictly before the
/// receiver executes round r+1 (where it consumes the message). Returns the
/// number of violated message constraints; 0 means the mapping is a
/// simulation. Never-scheduled consumer rounds impose no constraint (the
/// receiver truncated its execution), matching Lemma 4.4's discard rule.
std::uint64_t simulation_violations(const Graph& g, const CommunicationPattern& pattern,
                                    const NodeRoundTime& time) {
  std::uint64_t violations = 0;
  for (const LoadCell& cell : pattern.cells()) {
    const std::uint32_t r = cell.big_round;
    const auto [lo, hi] = g.endpoints(cell.edge / 2);
    const NodeId sender = (cell.edge % 2 == 0) ? lo : hi;
    const NodeId receiver = (cell.edge % 2 == 0) ? hi : lo;
    const std::uint32_t sent = time(sender, r);
    const std::uint32_t consumed = time(receiver, r + 1);
    if (sent == kNeverScheduled) {
      // The sender never transmits a message the pattern requires: if the
      // receiver still executes the consuming round, causality is broken.
      if (consumed != kNeverScheduled) violations += cell.load;
      continue;
    }
    if (consumed != kNeverScheduled && consumed <= sent) violations += cell.load;
  }
  return violations;
}

/// The pattern of the messages `keys` (cell_key(round, directed edge) values,
/// in any order, repeats counted).
CommunicationPattern pattern_of(std::uint32_t num_directed_edges,
                                std::vector<std::uint64_t> keys) {
  std::vector<LoadCell> cells;
  count_cells(keys, cells);
  return CommunicationPattern(num_directed_edges, std::move(cells));
}

/// Cells of `p` in round `r`.
std::size_t cells_in_round(const CommunicationPattern& p, std::uint32_t r) {
  return static_cast<std::size_t>(std::ranges::count_if(
      p.cells(), [r](const LoadCell& cell) { return cell.big_round == r; }));
}

/// congestion() of a problem on `g` whose solo patterns are `patterns` (the
/// algorithms are placeholders and never run).
std::uint32_t congestion_of(const Graph& g, std::vector<CommunicationPattern> patterns) {
  ScheduleProblem problem(g);
  std::vector<std::shared_ptr<const SoloRunResult>> solo;
  for (auto& pattern : patterns) {
    problem.add(std::make_unique<BroadcastAlgorithm>(0, 1, 0, 1));
    solo.push_back(std::make_shared<const SoloRunResult>(SoloRunResult{{}, std::move(pattern)}));
  }
  problem.adopt_solo(std::move(solo));
  return problem.congestion();
}

TEST(Pattern, RecordAndQuery) {
  const auto p = pattern_of(6, {cell_key(1, 0), cell_key(1, 2), cell_key(3, 0)});
  EXPECT_EQ(p.last_message_round(), 3u);
  EXPECT_EQ(p.total_messages(), 3u);
  EXPECT_EQ(p.edge_load(0), 2u);
  EXPECT_EQ(p.edge_load(2), 1u);
  EXPECT_EQ(p.edge_load(5), 0u);
  EXPECT_EQ(p.max_edge_load(), 2u);
  EXPECT_EQ(cells_in_round(p, 1), 2u);
  EXPECT_EQ(cells_in_round(p, 2), 0u);
  EXPECT_EQ(cells_in_round(p, 9), 0u);
}

TEST(Pattern, CellsCountRecordsInRoundEdgeOrder) {
  const auto p = pattern_of(6, {cell_key(3, 0), cell_key(1, 5), cell_key(1, 2), cell_key(1, 5)});
  EXPECT_TRUE(std::ranges::equal(p.cells(),
                                 std::vector<LoadCell>{{1, 2, 1}, {1, 5, 2}, {3, 0, 1}}));
  EXPECT_EQ(p.total_messages(), 4u);
  EXPECT_EQ(p.edge_load(5), 2u);
  EXPECT_TRUE(CommunicationPattern(6, {}).cells().empty());
}

TEST(PatternDeathTest, ConstructorRejectsMalformedCells) {
  const auto build = [](std::vector<LoadCell> cells) {
    return CommunicationPattern(6, std::move(cells));
  };
  EXPECT_DEATH((void)build({{2, 1, 1}, {1, 3, 1}}), "sorted");
  EXPECT_DEATH((void)build({{1, 3, 1}, {1, 3, 1}}), "sorted");
  EXPECT_DEATH((void)build({{0, 1, 1}}), "big_round >= 1");
  EXPECT_DEATH((void)build({{1, 6, 1}}), "num_directed_edges");
  EXPECT_DEATH((void)build({{1, 2, 0}}), "load >= 1");
}

TEST(Pattern, CombinedCongestionSumsPerEdge) {
  const auto a = pattern_of(4, {cell_key(1, 1), cell_key(2, 1)});
  const auto b = pattern_of(4, {cell_key(5, 1), cell_key(1, 3)});
  EXPECT_EQ(congestion_of(make_path(3), {a, b}), 3u);
  EXPECT_EQ(congestion_of(make_path(3), {b}), 1u);
}

TEST(Pattern, EmptyPatternHasZeroEverything) {
  // A node program that never sends (or a zero-round algorithm) still has a
  // well-formed footprint: all queries return the additive identities.
  const CommunicationPattern p(5, {});
  EXPECT_EQ(p.last_message_round(), 0u);
  EXPECT_EQ(p.total_messages(), 0u);
  EXPECT_EQ(p.max_edge_load(), 0u);
  for (std::uint32_t d = 0; d < 5; ++d) EXPECT_EQ(p.edge_load(d), 0u);
  EXPECT_TRUE(p.cells().empty());
  EXPECT_TRUE(CommunicationPattern().cells().empty());
}

TEST(Pattern, QueriesPastTheLastMessageRoundAreEmptyNotFatal) {
  const auto p = pattern_of(3, {cell_key(2, 1)});
  EXPECT_EQ(p.last_message_round(), 2u);
  // Rounds before the first message and past the last one hold no cells.
  EXPECT_EQ(cells_in_round(p, 1), 0u);
  EXPECT_EQ(cells_in_round(p, 3), 0u);
  EXPECT_EQ(cells_in_round(p, 1u << 20), 0u);
  EXPECT_EQ(p.total_messages(), 1u);
}

TEST(Pattern, SingleEdgeGraphFootprint) {
  // The smallest nontrivial topology: one undirected edge, two directed ids.
  const Graph g = make_path(2);
  ASSERT_EQ(g.num_directed_edges(), 2u);
  const auto p =
      pattern_of(g.num_directed_edges(), {cell_key(1, 0), cell_key(1, 1), cell_key(2, 0)});
  EXPECT_EQ(p.max_edge_load(), 2u);
  EXPECT_EQ(p.total_messages(), 3u);
  EXPECT_EQ(cells_in_round(p, 1), 2u);
  EXPECT_EQ(congestion_of(g, {p}), 2u);
}

TEST(Pattern, CombinedCongestionOfNothingIsZero) {
  EXPECT_EQ(
      congestion_of(make_path(3), {CommunicationPattern(4, {}), CommunicationPattern(4, {})}),
      0u);
}

TEST(Pattern, BfsPatternIsUnknowableButRecordable) {
  // The paper's Section 2 point: BFS's pattern depends on distances -- we can
  // only know it after running. Verify the recorded footprint matches the
  // BFS structure: node at distance q sends in round q+1.
  const auto g = make_path(6);
  BfsAlgorithm algo(0, 5, 1);
  const auto result = solo_run(g, algo);
  EXPECT_EQ(result.pattern.last_message_round(), 5u);
  for (const LoadCell& cell : result.pattern.cells()) {
    // In round r, node r-1 floods both directions (except ends).
    const auto [lo, hi] = g.endpoints(cell.edge / 2);
    const NodeId sender = (cell.edge % 2 == 0) ? lo : hi;
    EXPECT_EQ(sender, cell.big_round - 1);
  }
}

TEST(SimulationValidator, LockstepAndShiftedAreSimulations) {
  const auto g = make_grid(4, 4);
  BroadcastAlgorithm algo(0, 4, 9, 2);
  const auto solo = solo_run(g, algo);

  EXPECT_EQ(simulation_violations(g, solo.pattern,
                                  [](NodeId, std::uint32_t r) { return r - 1; }),
            0u);
  EXPECT_EQ(simulation_violations(g, solo.pattern,
                                  [](NodeId, std::uint32_t r) { return 10 + 3 * r; }),
            0u);
}

TEST(SimulationValidator, FlagsSkewAndMissingSenders) {
  const auto g = make_path(5);
  BroadcastAlgorithm algo(0, 4, 9, 2);
  const auto solo = solo_run(g, algo);

  // Receiver runs before sender: violations.
  EXPECT_GT(simulation_violations(g, solo.pattern,
                                  [](NodeId v, std::uint32_t r) {
                                    return (v == 0 ? 50u : 0u) + r;
                                  }),
            0u);
  // Sender truncated but receiver still consumes: violation.
  EXPECT_GT(simulation_violations(g, solo.pattern,
                                  [](NodeId v, std::uint32_t r) {
                                    if (v == 0) return kNeverScheduled;
                                    return r - 1;
                                  }),
            0u);
  // Both truncated consistently: no constraint.
  EXPECT_EQ(simulation_violations(g, solo.pattern,
                                  [](NodeId, std::uint32_t r) {
                                    if (r >= 2) return kNeverScheduled;
                                    return r - 1;
                                  }),
            0u);
}

TEST(SimulationValidator, PrivateSchedulerScheduleIsASimulation) {
  // Cross-check: the Theorem 4.1 exec times, reconstructed per algorithm,
  // pass the static Section-2 validator on the solo patterns.
  Rng rng(9);
  const auto g = make_gnp_connected(50, 0.1, rng);
  auto problem = make_broadcast_workload(g, 5, 3, 3);
  problem->run_solo();

  PrivateSchedulerConfig cfg;
  cfg.seed = 4;
  cfg.clustering.num_layers = 12;
  cfg.central_precomputation = true;
  const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
  ASSERT_EQ(out.exec.causality_violations, 0u);

  // Rebuild the same schedule times from the clustering + delays.
  ClusteringConfig ccfg = cfg.clustering;
  ccfg.seed = cfg.seed;
  ccfg.dilation = problem->dilation();
  const auto clustering = ClusteringBuilder(ccfg).build_central(g);
  const auto seeds = RandomnessSharing({.seed = cfg.seed}).run_central(g, clustering);
  std::uint32_t support = 0;
  const auto delay =
      PrivateRandomnessScheduler(cfg).compute_delays(*problem, clustering, seeds, &support);

  for (std::size_t a = 0; a < problem->size(); ++a) {
    const auto time = [&](NodeId v, std::uint32_t r) -> std::uint32_t {
      if (r > problem->algorithm(a).rounds() + 1) return kNeverScheduled;
      std::uint32_t best = kNeverScheduled;
      for (std::size_t l = 0; l < clustering.num_layers(); ++l) {
        if (clustering.layers[l].h_prime[v] + 1 >= r) {
          best = std::min(best, delay[l][v][a] + (r - 1));
        }
      }
      return best;
    };
    EXPECT_EQ(simulation_violations(g, problem->solo(a).pattern, time), 0u)
        << "algorithm " << a;
  }
}

}  // namespace
}  // namespace dasched
