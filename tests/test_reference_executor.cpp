// Differential conformance: the Executor against the naive Section 2 oracle
// in tests/reference_executor.hpp. Every tuple of (graph family, fault plan,
// run width, schedule kind, thread count) must agree on outputs, completion,
// causality violations, message totals, big-round count, per-big-round max
// loads and fault accounting. The graphs are dense enough that populated
// big-rounds carry well over 256 messages, so multi-thread runs put the
// delivery barrier's owners on the pool. The large G(n, p) family is sized
// so that, under every fault plan, its rounds carry at least 256 fresh
// messages at threads >= 2 -- fates are decided on the pool's execute
// shards -- and the test asserts it. Solo profiles (patterns and outputs)
// of every algorithm family are held to the oracle too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "algos/aggregate.hpp"
#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "algos/distinct_elements.hpp"
#include "algos/gossip.hpp"
#include "algos/mis.hpp"
#include "algos/mst.hpp"
#include "algos/path_routing.hpp"
#include "congest/executor.hpp"
#include "congest/simulator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"
#include "reference_executor.hpp"
#include "telemetry/profiler.hpp"
#include "util/fingerprint.hpp"

namespace dasched {
namespace {

/// Order-sensitive flood at a fixed payload width: the accumulator chains
/// every absorbed word, so any reordering, loss or duplication of inbox
/// contents changes the output. Each node skips a seeded subset of its
/// neighbors every round, so edge loads vary from round to round.
class FloodProgram final : public NodeProgram {
 public:
  FloodProgram(NodeId self, std::uint32_t width) : self_(self), width_(width) {}
  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    Payload p;
    for (std::uint32_t q = 0; q < width_; ++q) {
      p.push_back((std::uint64_t{self_} << 32) ^ (std::uint64_t{ctx.vround()} << 8) ^ acc_ ^ q);
    }
    for (const auto& h : ctx.neighbors()) {
      if (splitmix64(seed_combine(self_, h.neighbor, ctx.vround())) % 4 != 0) {
        ctx.send(h.neighbor, p);
      }
    }
  }
  void on_finish(VirtualContext& ctx) override { absorb(ctx); }
  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(), {acc_, absorbed_});
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      acc_ = acc_ * 0x100000001b3ull ^ m.from;
      for (const auto w : m.payload) acc_ += w ^ (acc_ >> 7);
      ++absorbed_;
    }
  }
  NodeId self_;
  std::uint32_t width_;
  std::uint64_t acc_ = 0;
  std::uint64_t absorbed_ = 0;
};

class FloodAlgorithm final : public DistributedAlgorithm {
 public:
  FloodAlgorithm(std::uint32_t width, std::uint32_t rounds, std::uint64_t seed)
      : DistributedAlgorithm(seed), width_(width), rounds_(rounds) {}
  std::string name() const override { return "oracle-flood"; }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<FloodProgram>(node, width_);
  }
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = width_;
    return f;
  }

 private:
  std::uint32_t width_;
  std::uint32_t rounds_;
};

enum class Family { kPath, kStar, kClique, kGnp, kDisconnected, kGnpLarge, kGrid };
enum class Plan { kClean, kDropDup, kRetry, kOutage, kCrash };

Graph make_graph(Family family) {
  Rng rng(17);
  switch (family) {
    case Family::kPath: return make_path(60);
    case Family::kStar: return make_star(60);
    case Family::kClique: return make_complete(24);
    case Family::kGnp: return make_gnp_connected(120, 0.06, rng);
    case Family::kGnpLarge: return make_gnp_connected(400, 0.03, rng);
    case Family::kGrid: return make_grid(8, 8);
    case Family::kDisconnected: {
      // Two dense components, a path fragment, and isolated nodes.
      std::vector<std::pair<NodeId, NodeId>> edges;
      for (NodeId u = 0; u < 16; ++u) {
        for (NodeId v = u + 1; v < 16; ++v) {
          edges.emplace_back(u, v);
          if (rng.next_below(2) == 0) edges.emplace_back(20 + u, 20 + v);
        }
      }
      for (NodeId v = 40; v + 1 < 50; ++v) edges.emplace_back(v, v + 1);
      return Graph(56, edges);
    }
  }
  return {};
}

FaultPlan make_plan(Plan kind, const Graph& g) {
  FaultPlan plan;
  plan.seed = 5151 + static_cast<std::uint64_t>(kind);
  switch (kind) {
    case Plan::kClean: break;
    case Plan::kDropDup:
      plan.drop_rate = 0.08;
      plan.duplicate_rate = 0.06;
      break;
    case Plan::kRetry:
      plan.drop_rate = 0.15;
      plan.duplicate_rate = 0.04;
      break;
    case Plan::kOutage:
      plan.drop_rate = 0.03;
      add_random_outages(plan, g, 6, 20, 5);
      break;
    case Plan::kCrash:
      plan.drop_rate = 0.03;
      add_random_crashes(plan, g.num_nodes(), 4, 12);
      break;
  }
  return plan;
}

void expect_conforms(const ExecutionResult& want, const ExecutionResult& got) {
  EXPECT_EQ(want.outputs, got.outputs);
  EXPECT_EQ(want.completed, got.completed);
  EXPECT_EQ(want.causality_violations, got.causality_violations);
  EXPECT_EQ(want.total_messages, got.total_messages);
  EXPECT_EQ(want.num_big_rounds, got.num_big_rounds);
  EXPECT_EQ(want.max_load_per_big_round, got.max_load_per_big_round);
  EXPECT_EQ(want.max_edge_load, got.max_edge_load);
  EXPECT_EQ(want.faults, got.faults);
}

using Tuple = std::tuple<Family, Plan, std::uint32_t>;

class OracleConformance : public ::testing::TestWithParam<Tuple> {};

TEST_P(OracleConformance, ExecutorMatchesTheReference) {
  const auto [family, plan_kind, width] = GetParam();
  const Graph g = make_graph(family);
  std::vector<std::unique_ptr<FloodAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  std::vector<std::uint32_t> delays;
  for (std::uint32_t a = 0; a < 4; ++a) {
    owned.push_back(std::make_unique<FloodAlgorithm>(width, 3 + a, 700 + a));
    algos.push_back(owned.back().get());
    delays.push_back(a % 2);
  }
  const RetryPolicy retry{plan_kind == Plan::kRetry ? 2u : 0u};

  // Lockstep-with-delays schedules are causal, and are stretched for the
  // retry budget; the skewed kind runs node v (v mod 3) big-rounds late, so
  // a late node's sends arrive after their consumers ran (causality
  // violations), and is not stretched, so retransmissions share barriers
  // with fresh sends to the same inboxes. The truncated kind is the causal
  // one with the rows of every fifth node cut short -- they end in
  // kNeverScheduled, some before their first round -- so those nodes never
  // complete although none of them crashes.
  const auto causal = ScheduleTable::from_delays(algos, g.num_nodes(), delays);
  const auto skewed = ScheduleTable::from_fn(
      algos, g.num_nodes(), [&](std::size_t a, NodeId v, std::uint32_t r) {
        return delays[a] + v % 3 + 2 * (r - 1);
      });
  const ScheduleTable truncated = [&] {
    ScheduleTable t = causal;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      for (NodeId v = 2; v < g.num_nodes(); v += 5) {
        const auto row = t.row_mut(a, v);
        const auto cut = std::min<std::size_t>(row.size(), 1 + (v + a) % 4);
        std::fill(row.end() - static_cast<std::ptrdiff_t>(cut), row.end(), kNeverScheduled);
      }
    }
    return t;
  }();

  // The crash plan also crashes two full-row nodes at the truncated
  // schedule's last big-round and at its horizon: the first never completes,
  // the second does.
  FaultPlan plan = make_plan(plan_kind, g);
  if (plan_kind == Plan::kCrash) {
    std::uint32_t horizon = 0;
    for (const auto t : truncated.flat()) {
      if (t != kNeverScheduled) horizon = std::max(horizon, t + 1);
    }
    NodeId next = 0;
    for (const std::uint32_t at : {horizon - 1, horizon}) {
      while (next % 5 == 2 || std::any_of(plan.crashes.begin(), plan.crashes.end(),
                                          [&](const auto& c) { return c.node == next; })) {
        ++next;
      }
      plan.crashes.push_back({next++, at});
    }
  }
  const FaultInjector injector(g, plan);
  const FaultInjector* faults = plan_kind == Plan::kClean ? nullptr : &injector;

  for (const auto* base : {&causal, &skewed, &truncated}) {
    const auto schedule = base == &skewed ? *base : stretch_for_retries(*base, retry);
    const auto want = ReferenceExecutor(g, faults, retry).run(algos, schedule);
    if (faults != nullptr) {
      EXPECT_GT(want.faults.attempts, 0u);
    }
    if (base == &skewed) {
      EXPECT_GT(want.causality_violations, 0u);
    }
    if (base == &truncated) {
      EXPECT_FALSE(want.all_completed());
    }
    const char* const kind =
        base == &causal ? " causal" : base == &skewed ? " skewed" : " truncated";
    for (const std::uint32_t threads : {0u, 2u, 4u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + kind);
      ExecProfiler profiler;
      ExecConfig cfg;
      cfg.num_threads = threads;
      cfg.faults = faults;
      cfg.retry = retry;
      // Fresh-message counts do not depend on the thread count; one pooled
      // run measures them, and threads 4 and 7 stay unobserved.
      const bool measured = family == Family::kGnpLarge && threads == 2;
      if (measured) cfg.profiler = &profiler;
      expect_conforms(want, Executor(g, cfg).run(algos, schedule));
      if (measured) {
        std::uint64_t max_fresh = 0;
        for (std::uint32_t t = 0; t < profiler.rounds_used(); ++t) {
          max_fresh = std::max(max_fresh,
                               profiler.round_messages(t) - profiler.round_retries(t));
        }
        EXPECT_GE(max_fresh, 256u) << "the large family no longer reaches the pooled path";
      }
    }
  }
}

std::string tuple_name(const ::testing::TestParamInfo<Tuple>& info) {
  static const char* const kFamilies[] = {"path",         "star",     "clique", "gnp",
                                          "disconnected", "gnplarge"};
  static const char* const kPlans[] = {"clean", "dropdup", "retry", "outage", "crash"};
  const auto [family, plan, width] = info.param;
  return std::string(kFamilies[static_cast<int>(family)]) + "_" +
         kPlans[static_cast<int>(plan)] + "_w" + std::to_string(width);
}

INSTANTIATE_TEST_SUITE_P(
    All, OracleConformance,
    ::testing::Combine(::testing::Values(Family::kPath, Family::kStar, Family::kClique,
                                         Family::kGnp, Family::kDisconnected,
                                         Family::kGnpLarge),
                       ::testing::Values(Plan::kClean, Plan::kDropDup, Plan::kRetry,
                                         Plan::kOutage, Plan::kCrash),
                       ::testing::Values(1u, 5u)),
    tuple_name);

/// One or more algorithms of each of the 8 families on `g`.
std::vector<std::unique_ptr<DistributedAlgorithm>> every_family(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::unique_ptr<DistributedAlgorithm>> algos;
  algos.push_back(std::make_unique<AggregateAlgorithm>(0, 3, 41));
  algos.push_back(std::make_unique<BfsAlgorithm>(n / 2, 6, 42));
  algos.push_back(std::make_unique<BroadcastAlgorithm>(n - 1, 5, 0xbeef, 43));
  DistinctElementsParams params;
  params.radius = 2;
  params.iterations = 4;
  std::vector<std::uint64_t> values(n);
  for (NodeId v = 0; v < n; ++v) values[v] = splitmix64(v) % 17;
  algos.push_back(std::make_unique<DistinctElementsAlgorithm>(
      g, params, values, std::vector<std::vector<std::uint64_t>>(n, {44}), 44));
  algos.push_back(std::make_unique<GossipAlgorithm>(0, 8, 0xfeed, 45));
  algos.push_back(
      std::make_unique<LubyMisAlgorithm>(4, std::vector<std::vector<std::uint64_t>>{}, 46));
  algos.push_back(std::make_unique<PipelineMstAlgorithm>(g, make_mst_weights(g, 47), 2, 47));
  Rng rng(48);
  for (auto& packet : make_random_routing_instance(g, 3, rng, 48)) {
    algos.push_back(std::move(packet));
  }
  return algos;
}

// A solo profile is the algorithm's communication pattern and its outputs;
// both must equal the oracle's lockstep run, cell for cell.
TEST(OracleSoloProfile, EveryFamilyMatchesTheReference) {
  for (const Family family : {Family::kPath, Family::kStar, Family::kGrid, Family::kGnp}) {
    const Graph g = make_graph(family);
    for (const auto& algo : every_family(g)) {
      SCOPED_TRACE(algo->name() + " on family " + std::to_string(static_cast<int>(family)));
      const DistributedAlgorithm* algos[] = {algo.get()};
      std::vector<std::vector<LoadCell>> patterns;
      const auto want = ReferenceExecutor(g).run(
          algos, ScheduleTable::lockstep(algos, g.num_nodes()), &patterns);
      ASSERT_EQ(want.causality_violations, 0u);
      ASSERT_FALSE(patterns[0].empty());
      const auto got = solo_run(g, *algo);
      const auto cells = got.pattern.cells();
      EXPECT_EQ(std::vector<LoadCell>(cells.begin(), cells.end()), patterns[0]);
      EXPECT_EQ(got.outputs, want.outputs[0]);
    }
  }
}

// The layout of every family's output table, pinned: one delay-scheduled
// run of all 8 families under a crash-stop plan, so some nodes never finish
// and contribute empty outputs. The digest folds result_fingerprint and
// every node's output size, at threads 0 and 4.
TEST(OutputLayoutGolden, EveryFamilyUnderCrashStopMatchesPinnedDigest) {
  constexpr std::uint64_t kGolden = 0xf32519c469bd7cca;
  const Graph g = make_graph(Family::kGnp);
  const NodeId n = g.num_nodes();
  const auto owned = every_family(g);
  std::vector<const DistributedAlgorithm*> algos;
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < owned.size(); ++a) {
    algos.push_back(owned[a].get());
    delays.push_back(static_cast<std::uint32_t>(a % 3));
  }
  const auto schedule = ScheduleTable::from_delays(algos, n, delays);
  // The crashes hit the final big-round only, so the digest pins the output
  // layout rather than how each family degrades under earlier crashes
  // (MstUnderCrashStop covers the MST's).
  std::uint32_t last = 0;
  for (std::size_t a = 0; a < algos.size(); ++a) {
    last = std::max(last, delays[a] + algos[a]->rounds() - 1);
  }
  FaultPlan plan;
  for (const NodeId v : {3u, 17u, 40u, 77u, 101u}) plan.crashes.push_back({v, last});
  const FaultInjector injector(g, plan);
  for (const std::uint32_t threads : {0u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.faults = &injector;
    const auto result = Executor(g, cfg).run(algos, schedule);
    Fingerprint fp;
    fp.mix(result_fingerprint(result));
    std::uint64_t incomplete = 0;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      ASSERT_EQ(result.outputs[a].size(), n);
      for (NodeId v = 0; v < n; ++v) {
        fp.mix(result.outputs[a][v].size());
        if (result.completed[a][v] == 0) {
          ++incomplete;
          EXPECT_EQ(result.outputs[a][v].size(), 0u);
        }
      }
    }
    EXPECT_GT(incomplete, 0u);
    EXPECT_EQ(fp.digest(), kGolden) << std::hex << "0x" << fp.digest();
  }
}

// Crash-stop faults that fire mid-run leave the pipeline MST's survivors
// with partial inboxes. Its programs must still send at most once per
// neighbor per round, so the crashes leave nodes incomplete instead of
// aborting the process; the run matches the oracle at every thread count.
TEST(MstUnderCrashStop, MidRunCrashesLeaveNodesIncomplete) {
  const Graph g = make_graph(Family::kGnp);
  const PipelineMstAlgorithm mst(g, make_mst_weights(g, 47), 2, 47);
  const DistributedAlgorithm* algos[] = {&mst};
  const auto schedule = ScheduleTable::lockstep(algos, g.num_nodes());
  FaultPlan plan;
  plan.seed = 6262;
  add_random_crashes(plan, g.num_nodes(), 10, 8);
  const FaultInjector injector(g, plan);
  const auto want = ReferenceExecutor(g, &injector).run(algos, schedule);
  for (const std::uint32_t threads : {0u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.faults = &injector;
    const auto got = Executor(g, cfg).run(algos, schedule);
    EXPECT_EQ(got.causality_violations, 0u);
    EXPECT_FALSE(got.all_completed());
    EXPECT_GT(got.faults.skipped_events, 0u);
    expect_conforms(want, got);
  }
}

// The oracle is only worth trusting if it can tell a broken run apart: a
// skewed schedule produces violations and differs from the causal one.
TEST(OracleSanity, SkewedScheduleViolatesCausality) {
  const Graph g = make_graph(Family::kClique);
  const FloodAlgorithm algo(2, 4, 1);
  const DistributedAlgorithm* algos[] = {&algo};
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());
  const auto skewed = ScheduleTable::from_fn(
      algos, g.num_nodes(),
      [](std::size_t, NodeId v, std::uint32_t r) { return v % 3 + 2 * (r - 1); });
  const auto clean = ReferenceExecutor(g).run(algos, lockstep);
  const auto late = ReferenceExecutor(g).run(algos, skewed);
  EXPECT_EQ(clean.causality_violations, 0u);
  EXPECT_GT(late.causality_violations, 0u);
  EXPECT_NE(clean.outputs, late.outputs);
}

}  // namespace
}  // namespace dasched
