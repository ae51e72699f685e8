// The naive alternative to Theorem 4.1 that the paper argues against:
// globally share the Theta(log^2 n) random bits by electing a leader and
// broadcasting, then run the Theorem 1.1 scheduler.
//
// "clearly one can elect a leader to pick the required initial 'shared'
// randomness and broadcast it to all nodes. However, this, and moreover any
// such global sharing procedure, will need at least Omega(D) rounds, for D
// being the network diameter, which is not desirable." (Section 1)
//
// We implement it faithfully as a CONGEST protocol -- BFS-tree election from
// the minimum id + pipelined broadcast of the seed words -- so that the E10
// ablation can compare its Theta(diameter) pre-computation against
// Theorem 4.1's O(dilation log^2 n): private-local sharing wins exactly when
// dilation << diameter / log^2 n, i.e. local algorithms on high-diameter
// networks.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "graph/graph.hpp"
#include "sched/problem.hpp"
#include "sched/shared_scheduler.hpp"

namespace dasched {

struct GlobalSharingConfig {
  std::uint64_t seed = 1;           // the leader's private randomness
  SharedSchedulerConfig scheduler;  // shared_seed is overwritten
};

struct GlobalSharingOutcome {
  /// Rounds of the election + broadcast protocol (Theta(diameter + words)).
  std::uint64_t precomputation_rounds = 0;
  /// True iff every node received the full seed (protocol correctness).
  bool sharing_complete = false;
  /// The scheduler seed node 0 folded from the broadcast words.
  std::uint64_t shared_seed = 0;
  SharedScheduleOutcome schedule;
};

class GlobalSharingScheduler {
 public:
  explicit GlobalSharingScheduler(GlobalSharingConfig cfg = {}) : cfg_(cfg) {}

  GlobalSharingOutcome run(ScheduleProblem& problem) const;

 private:
  GlobalSharingConfig cfg_;
};

}  // namespace dasched
