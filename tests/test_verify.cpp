// Static schedule verifier tests (src/verify/):
//   * Known-bad schedules: each seeded corruption of a valid schedule is
//     flagged with exactly its expected finding code -- gap, order,
//     causality, missing-producer, congestion-overrun, block-delay,
//     retry-headroom, dimension-mismatch.
//   * Clean sweep: every scheduler's emitted ScheduleTable verifies clean
//     across seeds, and the verifier's *static* max edge load equals the
//     executor's *measured* max edge load (deterministic algorithms on a
//     reliable network transmit exactly the solo-pattern messages).
//   * Retry stretch: the 2^R-stretched schedule of fault/reliable.hpp is
//     statically proven to have retry headroom; the unstretched one is not.
//   * Warm scratch: proofs over one reused ProofScratch equal fresh proofs.
//   * Static load count: the verifier's load surface, max load and overrun
//     findings, and util/load_cells' count_cells, equal a naive std::map
//     count, for slots and edge ids past 2^16.
//   * Findings survive the RunReport JSON round-trip with exact totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "congest/executor.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"
#include "json_reader.hpp"
#include "sched/baseline.hpp"
#include "sched/doubling.hpp"
#include "sched/global_sharing.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/run_report.hpp"
#include "util/load_cells.hpp"
#include "verify/schedule_verifier.hpp"

namespace dasched {
namespace {

using verify::check_schedule;
using verify::Report;
using verify::VerifyOptions;

// --- A small fixed instance with a known-valid sequential schedule that the
// corruption tests mutate one invariant at a time. ---

struct Fixture {
  Graph g;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable valid;  // sequential offsets: always correct, unit loads
};

Fixture make_fixture() {
  Rng rng(5);
  Fixture f{make_gnp_connected(40, 0.1, rng), nullptr, {}, {}};
  f.problem = make_broadcast_workload(f.g, 4, 3, 21);
  f.problem->run_solo();
  f.algos = f.problem->algorithm_ptrs();
  std::vector<std::uint32_t> offsets(f.algos.size(), 0);
  std::uint32_t acc = 0;
  for (std::size_t a = 0; a < f.algos.size(); ++a) {
    offsets[a] = acc;
    acc += f.problem->algorithm(a).rounds();
  }
  f.valid = ScheduleTable::from_delays(f.algos, f.g.num_nodes(), offsets);
  return f;
}

NodeId sender_of(const Graph& g, std::uint32_t directed) {
  const auto [lo, hi] = g.endpoints(directed / 2);
  return directed % 2 == 0 ? lo : hi;
}

NodeId receiver_of(const Graph& g, std::uint32_t directed) {
  const auto [lo, hi] = g.endpoints(directed / 2);
  return directed % 2 == 0 ? hi : lo;
}

/// Algorithm a's first solo message that a later round consumes (round <
/// rounds(a); round-rounds(a) messages feed on_finish), or null.
const LoadCell* first_consumed(const ScheduleProblem& problem, std::size_t a) {
  const auto cells = problem.solo(a).pattern.cells();
  const auto rounds = problem.algorithm(a).rounds();
  const auto it = std::ranges::find_if(
      cells, [rounds](const LoadCell& cell) { return cell.big_round < rounds; });
  return it == cells.end() ? nullptr : &*it;
}

/// Sorted distinct codes of the recorded error-severity findings (every
/// code with an error has at least one recorded finding).
std::vector<std::string> codes(const Report& r) {
  std::set<std::string> codes;
  for (const auto& f : r.findings()) {
    if (f.severity == verify::Severity::kError) codes.insert(f.code);
  }
  return {codes.begin(), codes.end()};
}

std::string table_str(const Report& r) {
  std::ostringstream os;
  r.to_table("findings").print(os);
  return os.str();
}

TEST(CheckSchedule, ValidSequentialScheduleIsClean) {
  const auto f = make_fixture();
  VerifyOptions opts;
  opts.congestion_budget = 1;  // sequential: one algorithm at a time, CONGEST
  opts.phase_len = 1;          // unit bandwidth => load <= 1 per big-round
  const auto report = check_schedule(*f.problem, f.valid, opts);
  EXPECT_TRUE(report.ok()) << table_str(report);
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_TRUE(report.has(verify::kCodeMeasured));
  EXPECT_GT(report.measured.scheduled_slots, 0u);
  EXPECT_GT(report.measured.checked_messages, 0u);
  EXPECT_LE(report.measured.max_edge_load, 1u);
}

TEST(CheckSchedule, GapIsFlagged) {
  auto f = make_fixture();
  // A gap with no side effects needs a (node, round) where the node sends
  // nothing: clearing that slot cannot orphan a producer. In a broadcast only
  // the frontier sends, so any node that is silent in some mid-row round works.
  const auto& pattern = f.problem->solo(0).pattern;
  const std::uint32_t rounds = f.problem->algorithm(0).rounds();
  std::int64_t hit_node = -1;
  std::uint32_t hit_round = 0;
  for (std::uint32_t r = 1; r < rounds && hit_node < 0; ++r) {
    std::vector<bool> sends(f.g.num_nodes(), false);
    for (const LoadCell& cell : pattern.cells()) {
      if (cell.big_round == r) sends[sender_of(f.g, cell.edge)] = true;
    }
    for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
      if (!sends[v]) {
        hit_node = v;
        hit_round = r;
        break;
      }
    }
  }
  ASSERT_GE(hit_node, 0) << "fixture: some node must be silent in some round";
  f.valid.set(0, static_cast<NodeId>(hit_node), hit_round, kNeverScheduled);
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeGap})
      << table_str(report);
}

TEST(CheckSchedule, OrderInversionIsFlagged) {
  auto f = make_fixture();
  // A node with no inbound round-1 message (only sources send in round 1):
  // collapsing its round-2 slot onto round 1 breaks ordering but no message
  // constraint.
  const auto& pattern = f.problem->solo(0).pattern;
  std::vector<bool> receives_r1(f.g.num_nodes(), false);
  for (const LoadCell& cell : pattern.cells()) {
    if (cell.big_round == 1) receives_r1[receiver_of(f.g, cell.edge)] = true;
  }
  std::int64_t victim = -1;
  for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
    if (!receives_r1[v]) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_GE(f.problem->algorithm(0).rounds(), 2u);
  const auto v = static_cast<NodeId>(victim);
  f.valid.set(0, v, 2, f.valid.at(0, v, 1));
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeOrder})
      << table_str(report);
  // Ordering implies delay monotonicity; an inversion breaks both when the
  // Lemma 4.4 monotonicity check is armed.
  VerifyOptions mono;
  mono.check_delay_monotonic = true;
  const auto report2 = check_schedule(*f.problem, f.valid, mono);
  EXPECT_TRUE(report2.has(verify::kCodeOrder));
  EXPECT_TRUE(report2.has(verify::kCodeBlockMonotonic));
}

TEST(CheckSchedule, CausalityInversionIsFlagged) {
  auto f = make_fixture();
  // Algorithm 1 starts at offset rounds(0) >= 1. Rewriting one receiving
  // node's row to lockstep (big-round r - 1) puts every inbound consumer slot
  // at or before its producer slot while the row itself stays well-formed.
  const auto* first = first_consumed(*f.problem, 1);
  ASSERT_NE(first, nullptr) << "fixture: algorithm 1 must deliver at least one message";
  const auto victim = receiver_of(f.g, first->edge);
  const auto row = f.valid.row_mut(1, victim);
  for (std::uint32_t r = 1; r <= row.size(); ++r) row[r - 1] = r - 1;
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeCausality})
      << table_str(report);
}

TEST(CheckSchedule, MissingProducerIsFlagged) {
  auto f = make_fixture();
  // Truncate the whole row of a node that sends: its messages survive in the
  // consumers' schedules, so the discard set is not causally closed.
  const auto* first = first_consumed(*f.problem, 0);
  ASSERT_NE(first, nullptr);
  const std::uint32_t sends_round = first->big_round;
  const auto victim = sender_of(f.g, first->edge);
  const auto row = f.valid.row_mut(0, victim);
  for (auto& slot : row) slot = kNeverScheduled;
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeMissingProducer})
      << "sender " << victim << " sends in round " << sends_round << "\n"
      << table_str(report);
  EXPECT_TRUE(report.has(verify::kCodeTruncation));  // info, not an error
  EXPECT_GE(report.measured.truncated_rows, 1u);
}

TEST(CheckSchedule, CongestionOverrunIsFlagged) {
  const auto f = make_fixture();
  // Lockstep co-schedules all four broadcasts; their frontiers collide on
  // some directed edge in some round (asserted, deterministic seeds), which
  // overruns a unit phase budget.
  std::vector<std::uint64_t> keys;
  for (std::size_t a = 0; a < f.problem->size(); ++a) {
    for (const LoadCell& cell : f.problem->solo(a).pattern.cells()) {
      keys.push_back(cell_key(cell.big_round, cell.edge));
    }
  }
  std::vector<LoadCell> cells;
  count_cells(keys, cells);
  const bool collision =
      std::ranges::any_of(cells, [](const LoadCell& cell) { return cell.load > 1; });
  ASSERT_TRUE(collision) << "fixture: lockstep broadcasts must collide somewhere";
  const auto lockstep = ScheduleTable::lockstep(f.algos, f.g.num_nodes());
  VerifyOptions opts;
  opts.congestion_budget = 1;
  opts.phase_len = 1;
  const auto report = check_schedule(*f.problem, lockstep, opts);
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeCongestionOverrun})
      << table_str(report);
  EXPECT_GT(report.measured.max_edge_load, 1u);
}

TEST(CheckSchedule, BlockDelayOutsideSupportIsFlagged) {
  const auto f = make_fixture();
  // Sequential offsets imply per-row start delays 0, T_1, T_1+T_2, ...; a
  // support covering only the first two algorithms flags the rest.
  VerifyOptions opts;
  opts.delay_support = f.problem->algorithm(0).rounds() + 1;
  const auto report = check_schedule(*f.problem, f.valid, opts);
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeBlockDelay})
      << table_str(report);
  // A support covering the whole span is clean.
  VerifyOptions wide;
  std::uint32_t total = 0;
  for (std::size_t a = 0; a < f.problem->size(); ++a)
    total += f.problem->algorithm(a).rounds();
  wide.delay_support = total;
  wide.check_delay_monotonic = true;
  EXPECT_TRUE(check_schedule(*f.problem, f.valid, wide).ok());
}

TEST(CheckSchedule, RetryStretchIsProvenAndItsAbsenceFlagged) {
  const auto f = make_fixture();
  RetryPolicy policy;
  policy.max_retries = 2;
  VerifyOptions opts;
  opts.retry_budget = policy.max_retries;
  // The stretched schedule statically satisfies the 2^R headroom lemma...
  const auto stretched = stretch_for_retries(f.valid, policy);
  const auto proven = check_schedule(*f.problem, stretched, opts);
  EXPECT_TRUE(proven.ok()) << table_str(proven);
  // ...and the unstretched schedule provably does not (gap 1 < 2^2).
  const auto unproven = check_schedule(*f.problem, f.valid, opts);
  EXPECT_EQ(codes(unproven), std::vector<std::string>{verify::kCodeRetryHeadroom})
      << table_str(unproven);
}

TEST(CheckSchedule, DimensionMismatchIsTerminal) {
  const auto f = make_fixture();
  const auto wrong_n = ScheduleTable::lockstep(f.algos, f.g.num_nodes() - 1);
  const auto report = check_schedule(*f.problem, wrong_n, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeDimensionMismatch});
  // Terminal: no other checks ran, not even the measured-constants info.
  EXPECT_FALSE(report.has(verify::kCodeMeasured));
  EXPECT_EQ(report.measured.scheduled_slots, 0u);
}

TEST(CheckSchedule, FindingCapKeepsTotalsExact) {
  const auto f = make_fixture();
  // A support of 1 admits only algorithm 0 (delay 0): every slot of the
  // remaining algorithms is out of block -- hundreds of findings, cap of 2.
  VerifyOptions opts;
  opts.delay_support = 1;
  opts.max_findings_per_code = 2;
  const auto report = check_schedule(*f.problem, f.valid, opts);
  EXPECT_GT(report.count(verify::kCodeBlockDelay), 2u);
  EXPECT_EQ(report.errors(), report.count(verify::kCodeBlockDelay));
  std::size_t recorded = 0;
  for (const auto& finding : report.findings())
    if (finding.code == verify::kCodeBlockDelay) ++recorded;
  EXPECT_EQ(recorded, 2u);
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeBlockDelay});
}

// --- Clean sweep: every scheduler's table verifies clean, and the static
// load accounting agrees exactly with the executor's measurements. ---

std::unique_ptr<ScheduleProblem> sweep_problem(const Graph& g) {
  return make_mixed_workload(g, 6, 4, 17);
}

Graph sweep_graph() {
  Rng rng(3);
  return make_gnp_connected(60, 0.08, rng);
}

void expect_clean_and_static_equals_dynamic(const std::string& name,
                                            const ScheduleProblem& problem,
                                            const ScheduleTable& schedule,
                                            const ExecutionResult& exec,
                                            const VerifyOptions& opts) {
  const auto report = check_schedule(problem, schedule, opts);
  EXPECT_TRUE(report.ok()) << name << ":\n" << table_str(report);
  // Deterministic algorithms on a reliable network: the schedule transmits
  // exactly the solo-pattern messages, so static loads == measured loads.
  EXPECT_EQ(report.measured.max_edge_load, exec.max_edge_load) << name;
  EXPECT_EQ(report.measured.big_rounds, exec.num_big_rounds) << name;
}

TEST(CleanSweep, SequentialAndGreedyVerifyWithUnitBudget) {
  const auto g = sweep_graph();
  VerifyOptions opts;
  opts.congestion_budget = 1;
  opts.phase_len = 1;
  {
    auto problem = sweep_problem(g);
    const auto out = SequentialScheduler{}.run(*problem);
    expect_clean_and_static_equals_dynamic("sequential", *problem, out.schedule,
                                           out.exec, opts);
  }
  {
    auto problem = sweep_problem(g);
    const auto out = GreedyScheduler{}.run(*problem);
    expect_clean_and_static_equals_dynamic("greedy", *problem, out.schedule,
                                           out.exec, opts);
  }
}

TEST(CleanSweep, SharedSchedulerVerifiesOverSeeds) {
  const auto g = sweep_graph();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto problem = sweep_problem(g);
    SharedSchedulerConfig cfg;
    cfg.shared_seed = seed;
    const auto out = SharedRandomnessScheduler(cfg).run(*problem);
    VerifyOptions opts;
    opts.phase_len = out.phase_len;
    expect_clean_and_static_equals_dynamic("shared seed " + std::to_string(seed),
                                           *problem, out.schedule, out.exec, opts);
  }
}

TEST(CleanSweep, PrivateSchedulerVerifiesOverSeeds) {
  const auto g = sweep_graph();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto problem = sweep_problem(g);
    PrivateSchedulerConfig cfg;
    cfg.seed = seed;
    cfg.central_precomputation = true;
    const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
    VerifyOptions opts;
    opts.phase_len = out.phase_len;
    opts.delay_support = out.delay_support;
    opts.check_delay_monotonic = true;
    expect_clean_and_static_equals_dynamic("private seed " + std::to_string(seed),
                                           *problem, out.schedule, out.exec, opts);
  }
}

TEST(CleanSweep, GlobalSharingAndDoublingVerify) {
  const auto g = sweep_graph();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto problem = sweep_problem(g);
    GlobalSharingConfig cfg;
    cfg.seed = seed;
    const auto out = GlobalSharingScheduler(cfg).run(*problem);
    ASSERT_TRUE(out.sharing_complete);
    VerifyOptions opts;
    opts.phase_len = out.schedule.phase_len;
    expect_clean_and_static_equals_dynamic("global seed " + std::to_string(seed),
                                           *problem, out.schedule.schedule,
                                           out.schedule.exec, opts);
  }
  {
    auto problem = sweep_problem(g);
    const auto out = run_with_doubling(*problem);
    VerifyOptions opts;
    opts.phase_len = out.final.phase_len;
    expect_clean_and_static_equals_dynamic("doubling", *problem, out.final.schedule,
                                           out.final.exec, opts);
  }
}

// --- Static load count vs a naive reference: for arbitrary (even corrupt)
// tables, the verifier's sorted load surface, its max load and its
// congestion-overrun findings -- and count_cells over the same transmissions
// in emission order -- equal a std::map count of the scheduled (producer
// big-round, directed edge) transmissions, in map order. Slots at and past
// 2^16 and near 2^31, and edge ids past 2^16, make every 16-bit digit of the
// packed sort key vary. ---

using LoadMap = std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>;

/// The reference count; `keys` (optional) receives each transmission's
/// cell_key in emission order.
LoadMap reference_loads(const ScheduleProblem& problem, const ScheduleTable& table,
                        std::vector<std::uint64_t>* keys = nullptr) {
  LoadMap loads;
  for (std::size_t a = 0; a < problem.size(); ++a) {
    for (const LoadCell& cell : problem.solo(a).pattern.cells()) {
      const std::uint32_t d = cell.edge;
      const std::uint32_t slot = table.at(a, sender_of(problem.graph(), d), cell.big_round);
      if (slot == kNeverScheduled) continue;
      loads[{slot, d}] += cell.load;
      if (keys != nullptr) keys->insert(keys->end(), cell.load, cell_key(slot, d));
    }
  }
  return loads;
}

std::vector<LoadCell> map_cells(const LoadMap& loads) {
  std::vector<LoadCell> cells;
  for (const auto& [key, load] : loads) cells.push_back({key.first, key.second, load});
  return cells;
}

void expect_loads_match_reference(const ScheduleProblem& problem, const ScheduleTable& table,
                                  const std::string& name) {
  VerifyOptions opts;
  opts.congestion_budget = 1;
  opts.phase_len = 1;
  opts.max_findings_per_code = ~std::size_t{0};
  std::vector<LoadCell> cells;
  const auto report = check_schedule(problem, table, opts, &cells);
  std::vector<std::uint64_t> keys;
  const LoadMap want = reference_loads(problem, table, &keys);
  const std::vector<LoadCell> want_cells = map_cells(want);
  std::vector<LoadCell> counted{{1, 2, 3}};
  count_cells(keys, counted);
  EXPECT_EQ(counted, want_cells) << name;

  std::vector<LoadCell> want_overruns;
  std::uint32_t want_max = 0;
  for (const LoadCell& cell : want_cells) {
    if (cell.load > opts.congestion_budget) want_overruns.push_back(cell);
    want_max = std::max(want_max, cell.load);
  }
  std::vector<LoadCell> overruns;
  for (const auto& f : report.findings()) {
    if (f.code != verify::kCodeCongestionOverrun) continue;
    overruns.push_back({static_cast<std::uint32_t>(f.location.big_round),
                        static_cast<std::uint32_t>(f.location.edge),
                        static_cast<std::uint32_t>(f.metrics.at(0).second)});
  }
  EXPECT_EQ(cells, want_cells) << name;
  EXPECT_EQ(report.measured.max_edge_load, want_max) << name;
  EXPECT_EQ(overruns, want_overruns) << name;
  EXPECT_EQ(report.count(verify::kCodeCongestionOverrun), want_overruns.size()) << name;
}

/// A table whose slots are `base` plus a small random offset (so cells
/// collide), with about one slot in eight left unscheduled.
ScheduleTable random_table(const ScheduleProblem& problem, std::uint32_t base,
                           std::uint32_t spread, Rng& rng) {
  return ScheduleTable::from_fn(
      problem.algorithm_ptrs(), problem.graph().num_nodes(),
      [&](std::size_t, NodeId, std::uint32_t) -> std::uint32_t {
        if (rng.next_below(8) == 0) return kNeverScheduled;
        return base + static_cast<std::uint32_t>(rng.next_below(spread));
      });
}

TEST(StaticLoadCount, MatchesNaiveReferenceAcrossSlotRanges) {
  const auto f = make_fixture();
  Rng rng(17);
  const std::uint32_t bases[] = {0, 65530, 1u << 20, (1u << 31) - 6, 0xfffffff0u};
  for (const std::uint32_t base : bases) {
    for (int rep = 0; rep < 4; ++rep) {
      expect_loads_match_reference(*f.problem, random_table(*f.problem, base, 12, rng),
                                   "base " + std::to_string(base));
    }
  }
  // Slots spread over the whole 32-bit range: every round digit varies.
  for (int rep = 0; rep < 4; ++rep) {
    const auto table = ScheduleTable::from_fn(
        f.algos, f.g.num_nodes(), [&](std::size_t, NodeId, std::uint32_t) {
          return static_cast<std::uint32_t>(rng.next_below(kNeverScheduled));
        });
    expect_loads_match_reference(*f.problem, table, "full range");
  }
}

TEST(StaticLoadCount, MatchesNaiveReferencePastSixteenBitEdgeIds) {
  // A path with 40000 nodes has 79998 directed edges: edge ids cross 2^16,
  // so the edge half of the key needs two digit passes too. Delay tables
  // (valid rows, colliding algorithms) keep the per-slot findings out.
  const Graph g = make_path(40000);
  ASSERT_GT(g.num_directed_edges(), 1u << 16);
  auto problem = make_broadcast_workload(g, 12, 16, 3);
  problem->run_solo();
  const auto algos = problem->algorithm_ptrs();
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());
  const LoadMap loads = reference_loads(*problem, lockstep);
  ASSERT_TRUE(std::any_of(loads.begin(), loads.end(),
                          [](const auto& cell) { return cell.first.second >= (1u << 16); }));
  expect_loads_match_reference(*problem, lockstep, "path lockstep");
  Rng rng(29);
  for (const std::uint32_t base : {0u, 65530u, (1u << 31) - 3}) {
    std::vector<std::uint32_t> delays(algos.size());
    for (auto& d : delays) d = base + static_cast<std::uint32_t>(rng.next_below(6));
    expect_loads_match_reference(*problem, ScheduleTable::from_delays(algos, g.num_nodes(), delays),
                                 "path base " + std::to_string(base));
  }
}

TEST(StaticLoadCount, CountCellsMatchesNaiveReferenceOnRawKeys) {
  const auto reference = [](const std::vector<std::uint64_t>& keys) {
    LoadMap loads;
    for (const auto key : keys) {
      ++loads[{static_cast<std::uint32_t>(key >> 32), static_cast<std::uint32_t>(key)}];
    }
    return map_cells(loads);
  };
  Rng rng(41);
  std::vector<std::vector<std::uint64_t>> inputs;
  inputs.push_back({});
  inputs.push_back({cell_key(3, 4)});
  inputs.push_back(std::vector<std::uint64_t>(50, cell_key(70000, 90000)));  // all equal
  {
    // Round and edge halves both cross 2^16 (and reach the top digit), with
    // collisions: every 16-bit digit varies.
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 4000; ++i) {
      const auto round = static_cast<std::uint32_t>(
          (rng.next_below(4) << 30) | (rng.next_below(3) << 16) | rng.next_below(5));
      const auto edge = static_cast<std::uint32_t>(
          (rng.next_below(2) << 31) | (rng.next_below(3) << 16) | rng.next_below(5));
      keys.push_back(cell_key(round, edge));
    }
    inputs.push_back(std::move(keys));
  }
  for (auto& keys : inputs) {
    const auto want = reference(keys);
    std::vector<LoadCell> cells{{9, 9, 9}};
    count_cells(keys, cells);
    EXPECT_EQ(cells, want) << keys.size() << " keys";
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  }
}

TEST(StaticLoadCount, EmptyLoadListHasNoCells) {
  // Every slot unscheduled: no transmission exists, so no cell, no load and
  // no overrun -- and every consumer is truncated too, so nothing else fires.
  const auto f = make_fixture();
  const ScheduleTable never(f.algos, f.g.num_nodes());
  ASSERT_TRUE(reference_loads(*f.problem, never).empty());
  expect_loads_match_reference(*f.problem, never, "unscheduled");
  std::vector<LoadCell> cells{{1, 2, 3}};
  const auto report = check_schedule(*f.problem, never, {}, &cells);
  EXPECT_TRUE(cells.empty());
  EXPECT_TRUE(report.ok()) << table_str(report);
}

// --- One scratch across proofs: a caller that keeps its buffers warm (the
// service daemon does) gets the same report and load surface as a fresh
// proof, whatever the previous proof over those buffers found. ---

TEST(CheckScheduleScratch, ReusedBuffersProveLikeFreshOnes) {
  auto f = make_fixture();
  ScheduleTable broken = f.valid;
  const auto* first = first_consumed(*f.problem, 1);
  ASSERT_NE(first, nullptr);
  const auto victim = receiver_of(f.g, first->edge);
  const auto row = broken.row_mut(1, victim);
  for (std::uint32_t r = 1; r <= row.size(); ++r) row[r - 1] = r - 1;
  const auto lockstep = ScheduleTable::lockstep(f.algos, f.g.num_nodes());

  verify::ProofScratch scratch;
  const ScheduleTable* tables[] = {&f.valid, &broken, &lockstep, &f.valid};
  for (const ScheduleTable* table : tables) {
    std::vector<LoadCell> fresh_cells;
    const Report fresh = check_schedule(*f.problem, *table, {}, &fresh_cells);
    const Report warm = check_schedule(*f.problem, *table, {}, scratch);
    EXPECT_EQ(warm.ok(), fresh.ok());
    EXPECT_EQ(warm.errors(), fresh.errors());
    EXPECT_EQ(warm.has(verify::kCodeCausality), fresh.has(verify::kCodeCausality));
    EXPECT_EQ(warm.measured.checked_messages, fresh.measured.checked_messages);
    EXPECT_EQ(warm.measured.max_edge_load, fresh.measured.max_edge_load);
    EXPECT_EQ(warm.measured.big_rounds, fresh.measured.big_rounds);
    EXPECT_EQ(scratch.cells, fresh_cells);
  }
  EXPECT_FALSE(check_schedule(*f.problem, broken, {}, scratch).ok());
}

// --- Findings survive the RunReport JSON round-trip. ---

TEST(FindingsJson, RoundTripPreservesTotalsAndItems) {
  auto f = make_fixture();
  const auto lockstep = ScheduleTable::lockstep(f.algos, f.g.num_nodes());
  VerifyOptions opts;
  opts.congestion_budget = 1;
  const auto report = check_schedule(*f.problem, lockstep, opts);
  ASSERT_FALSE(report.ok());

  RunReport rr;
  rr.set_meta("scheduler", "lockstep");
  report.to_run_report(rr, "sched=lockstep");
  std::ostringstream oss;
  rr.write(oss);

  std::string err;
  const auto doc = json::parse(oss.str(), &err);
  ASSERT_NE(doc, nullptr) << err << "\n" << oss.str();
  const auto* findings = doc->get("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->get("errors")->number, static_cast<double>(report.errors()));
  EXPECT_EQ(findings->get("warnings")->number, static_cast<double>(report.warnings()));
  EXPECT_EQ(findings->get("infos")->number, static_cast<double>(report.infos()));
  const auto& items = findings->get("items")->array;
  ASSERT_EQ(items.size(), report.findings().size());
  bool saw_overrun = false;
  bool saw_measured = false;
  for (const auto& item : items) {
    const auto code = item->get("code")->string;
    if (code == verify::kCodeCongestionOverrun) {
      saw_overrun = true;
      EXPECT_EQ(item->get("severity")->string, "error");
      // The location prefix is prepended to the rendered location.
      EXPECT_EQ(item->get("location")->string.rfind("sched=lockstep", 0), 0u);
      const auto* metrics = item->get("metrics");
      ASSERT_NE(metrics, nullptr);
      EXPECT_GT(metrics->get("load")->number, metrics->get("budget")->number);
    }
    if (code == verify::kCodeMeasured) {
      saw_measured = true;
      EXPECT_EQ(item->get("severity")->string, "info");
      const auto* metrics = item->get("metrics");
      ASSERT_NE(metrics, nullptr);
      EXPECT_EQ(metrics->get("congestion")->number,
                static_cast<double>(f.problem->congestion()));
    }
  }
  EXPECT_TRUE(saw_overrun);
  EXPECT_TRUE(saw_measured);
}

}  // namespace
}  // namespace dasched
