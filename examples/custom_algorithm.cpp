// How to write your own schedulable algorithm.
//
// Implements a small CONGEST algorithm from scratch -- h-hop local-leader
// election: every node learns the maximum "priority" within its h-ball and
// whether it is itself the local leader -- and schedules 16 instances of it
// (different priority functions) together under Theorem 1.1 and Theorem 4.1.
//
// The contract (src/congest/program.hpp): a NodeProgram is a deterministic
// state machine driven by (input and private randomness baked in at
// construction -- node_rng(base_seed(), v) for the latter -- and the inbox).
// Follow it and every scheduler in this library can run your algorithm as a
// black box and guarantee solo-equivalent outputs.
//
// Two hooks connect it to the engine: the algorithm's construct_program
// builds each node's program in the executor's arena (arena.make<P>), and
// the program's write_output appends its output words to the algorithm's
// flat output table once the run is over.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "congest/program.hpp"
#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/problem.hpp"
#include "sched/shared_scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace dasched;

/// h-hop local-leader election: flood the max (priority, id) pair for h
/// rounds (send on improvement). Output: {local max priority, leader id,
/// am-I-the-leader}.
class LocalLeaderProgram final : public NodeProgram {
 public:
  LocalLeaderProgram(NodeId self, std::uint64_t priority)
      : self_(self), best_priority_(priority), best_id_(self) {}

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    if (best_priority_ != sent_priority_ || best_id_ != sent_id_) {
      sent_priority_ = best_priority_;
      sent_id_ = best_id_;
      for (const auto& nb : ctx.neighbors()) {
        ctx.send(nb.neighbor, {best_priority_, best_id_});
      }
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(), {best_priority_, best_id_, best_id_ == self_ ? 1ULL : 0ULL});
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      const auto p = m.payload.at(0);
      const auto id = m.payload.at(1);
      if (p > best_priority_ || (p == best_priority_ && id < best_id_)) {
        best_priority_ = p;
        best_id_ = id;
      }
    }
  }

  NodeId self_;
  std::uint64_t best_priority_;
  std::uint64_t best_id_;
  std::uint64_t sent_priority_ = ~std::uint64_t{0};
  std::uint64_t sent_id_ = ~std::uint64_t{0};
};

class LocalLeaderAlgorithm final : public DistributedAlgorithm {
 public:
  LocalLeaderAlgorithm(std::uint32_t radius, std::uint64_t priority_seed,
                       std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), radius_(radius), priority_seed_(priority_seed) {}

  std::string name() const override { return "local-leader"; }
  std::uint32_t rounds() const override { return radius_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    // Priorities are part of the input: deterministic per (instance, node).
    return arena.make<LocalLeaderProgram>(node, splitmix64(priority_seed_ ^ node));
  }

 private:
  std::uint32_t radius_;
  std::uint64_t priority_seed_;
};

}  // namespace

int main() {
  using namespace dasched;
  Rng rng(3);
  const auto g = make_gnp_connected(150, 0.04, rng);
  std::printf("custom algorithm: 16 x h-hop local-leader election, h = 4, n = %u\n\n",
              g.num_nodes());

  auto fresh = [&] {
    auto problem = std::make_unique<ScheduleProblem>(g);
    for (std::uint64_t i = 0; i < 16; ++i) {
      problem->add(std::make_unique<LocalLeaderAlgorithm>(4, 100 + i, 200 + i));
    }
    return problem;
  };

  auto probe = fresh();
  probe->run_solo();
  std::printf("congestion = %u, dilation = %u\n\n", probe->congestion(),
              probe->dilation());

  Table table("scheduling a user-defined black box");
  table.set_header({"scheduler", "rounds", "correct"});
  {
    auto p = fresh();
    const auto out = SharedRandomnessScheduler{}.run(*p);
    table.add_row({"Thm 1.1", Table::fmt(out.schedule_rounds),
                   p->verify(out.exec).ok() ? "yes" : "NO"});
  }
  {
    auto p = fresh();
    PrivateSchedulerConfig cfg;
    cfg.seed = 7;
    const auto out = PrivateRandomnessScheduler(cfg).run(*p);
    table.add_row({"Thm 4.1", Table::fmt(out.schedule_rounds),
                   (p->verify(out.exec).ok() && out.uncovered_nodes == 0) ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf("No scheduler code was touched: the library only sees NodeProgram.\n");
  return 0;
}
