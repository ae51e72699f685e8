// The full correctness matrix: every scheduler x every workload family x
// every graph family, each cell verifying bit-exact solo equivalence. This
// is the library's core contract ("each node outputs the same value as if
// that algorithm was run alone", Section 2) swept systematically.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "sched/baseline.hpp"
#include "sched/moser_tardos.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"

namespace dasched {
namespace {

enum class SchedKind { kSequential, kGreedy, kShared, kPrivate, kMoserTardos };
enum class WorkKind { kBroadcast, kBfs, kRouting, kMixed };
enum class GraphKind { kGnp, kGrid, kTorus, kTree };

const char* name_of(SchedKind s) {
  switch (s) {
    case SchedKind::kSequential: return "sequential";
    case SchedKind::kGreedy: return "greedy";
    case SchedKind::kShared: return "shared";
    case SchedKind::kPrivate: return "private";
    case SchedKind::kMoserTardos: return "mosertardos";
  }
  return "?";
}
const char* name_of(WorkKind w) {
  switch (w) {
    case WorkKind::kBroadcast: return "broadcast";
    case WorkKind::kBfs: return "bfs";
    case WorkKind::kRouting: return "routing";
    case WorkKind::kMixed: return "mixed";
  }
  return "?";
}
const char* name_of(GraphKind g) {
  switch (g) {
    case GraphKind::kGnp: return "gnp";
    case GraphKind::kGrid: return "grid";
    case GraphKind::kTorus: return "torus";
    case GraphKind::kTree: return "tree";
  }
  return "?";
}

Graph make(GraphKind kind) {
  Rng rng(42);
  switch (kind) {
    case GraphKind::kGnp: return make_gnp_connected(64, 0.08, rng);
    case GraphKind::kGrid: return make_grid(8, 8);
    case GraphKind::kTorus: return make_grid(8, 8, true);
    case GraphKind::kTree: return make_binary_tree(63);
  }
  return make_path(2);
}

std::unique_ptr<ScheduleProblem> make(const Graph& g, WorkKind kind) {
  switch (kind) {
    case WorkKind::kBroadcast: return make_broadcast_workload(g, 8, 3, 11);
    case WorkKind::kBfs: return make_bfs_workload(g, 8, 3, 12);
    case WorkKind::kRouting: return make_routing_workload(g, 10, 13);
    case WorkKind::kMixed: return make_mixed_workload(g, 9, 3, 14);
  }
  return nullptr;
}

using MatrixParam = std::tuple<SchedKind, WorkKind, GraphKind>;

class SchedulerMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(SchedulerMatrix, SoloEquivalence) {
  const auto [sched, work, graph_kind] = GetParam();
  const auto g = make(graph_kind);
  auto problem = make(g, work);

  switch (sched) {
    case SchedKind::kSequential: {
      const auto out = SequentialScheduler{}.run(*problem);
      EXPECT_TRUE(problem->verify(out.exec).ok());
      break;
    }
    case SchedKind::kGreedy: {
      const auto out = GreedyScheduler{}.run(*problem);
      EXPECT_TRUE(problem->verify(out.exec).ok());
      EXPECT_GE(out.schedule_rounds, problem->trivial_lower_bound());
      break;
    }
    case SchedKind::kShared: {
      SharedSchedulerConfig cfg;
      cfg.shared_seed = 21;
      const auto out = SharedRandomnessScheduler(cfg).run(*problem);
      EXPECT_TRUE(problem->verify(out.exec).ok());
      break;
    }
    case SchedKind::kPrivate: {
      PrivateSchedulerConfig cfg;
      cfg.seed = 22;
      cfg.clustering.num_layers = 14;
      cfg.central_precomputation = true;  // distributed==central verified elsewhere
      const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
      EXPECT_EQ(out.exec.causality_violations, 0u);
      if (out.uncovered_nodes == 0) {
        EXPECT_TRUE(problem->verify(out.exec).ok());
      }
      break;
    }
    case SchedKind::kMoserTardos: {
      MoserTardosConfig cfg;
      cfg.seed = 23;
      cfg.frame_factor = 6.0;
      const auto out = MoserTardosScheduler(cfg).run(*problem);
      if (out.converged) {
        EXPECT_TRUE(problem->verify(out.exec).ok());
        EXPECT_LE(out.exec.max_edge_load, 1u);
      }
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, SchedulerMatrix,
    ::testing::Combine(::testing::Values(SchedKind::kSequential, SchedKind::kGreedy,
                                         SchedKind::kShared, SchedKind::kPrivate,
                                         SchedKind::kMoserTardos),
                       ::testing::Values(WorkKind::kBroadcast, WorkKind::kBfs,
                                         WorkKind::kRouting, WorkKind::kMixed),
                       ::testing::Values(GraphKind::kGnp, GraphKind::kGrid,
                                         GraphKind::kTorus, GraphKind::kTree)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      // (No structured bindings here: square brackets break macro parsing.)
      return std::string(name_of(std::get<0>(info.param))) + "_" +
             name_of(std::get<1>(info.param)) + "_" + name_of(std::get<2>(info.param));
    });

}  // namespace
}  // namespace dasched
