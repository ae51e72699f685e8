#include "sched/baseline.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace dasched {

BaselineOutcome SequentialScheduler::run(ScheduleProblem& problem) const {
  problem.run_solo();
  const auto algos = problem.algorithm_ptrs();
  std::vector<std::uint32_t> offsets(algos.size(), 0);
  for (std::size_t a = 1; a < algos.size(); ++a) {
    offsets[a] = offsets[a - 1] + algos[a - 1]->rounds();
  }

  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;  // one algorithm at a time: solo bandwidth holds
  Executor executor(problem.graph(), cfg);
  BaselineOutcome out;
  out.schedule =
      ScheduleTable::from_delays(algos, problem.graph().num_nodes(), offsets);
  out.exec = executor.run(algos, out.schedule);
  out.schedule_rounds = out.exec.num_big_rounds;
  return out;
}

namespace {

/// Inbound bookkeeping for one (algorithm, node): per message tag, how many
/// messages are still unscheduled and the latest arrival time so far.
struct InboundSlot {
  std::uint32_t remaining = 0;
  std::uint32_t last_arrival = 0;  // earliest time the consuming round may run
};

struct NodeState {
  std::uint32_t next_r = 1;
  std::uint32_t prev_time_plus1 = 0;  // lower bound from own previous round
  std::unordered_map<std::uint32_t, InboundSlot> inbound;  // tag -> slot
};

struct Item {
  std::uint32_t alg;
  NodeId node;
  std::uint32_t vround;
};

}  // namespace

BaselineOutcome GreedyScheduler::run(ScheduleProblem& problem) const {
  problem.run_solo();
  const auto& g = problem.graph();
  const auto algos = problem.algorithm_ptrs();
  const std::size_t k = algos.size();
  const NodeId n = g.num_nodes();

  // --- Extract per-(alg, node, round) outgoing edges and inbound counts. ---
  // out_edges[a][v] maps vround -> directed edges v sends on.
  std::vector<std::vector<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>>>
      out_edges(k);
  std::vector<std::vector<NodeState>> state(k);
  for (std::size_t a = 0; a < k; ++a) {
    out_edges[a].resize(n);
    state[a].resize(n);
    for (const LoadCell& cell : problem.solo(a).pattern.cells()) {
      const std::uint32_t d = cell.edge;
      const auto [lo, hi] = g.endpoints(d / 2);
      const NodeId sender = (d % 2 == 0) ? lo : hi;
      const NodeId receiver = (d % 2 == 0) ? hi : lo;
      auto& sends = out_edges[a][sender][cell.big_round];
      sends.insert(sends.end(), cell.load, d);
      state[a][receiver].inbound[cell.big_round].remaining += cell.load;
    }
  }

  // --- Greedy time-stepped list scheduling. ---
  ScheduleTable exec_time(algos, n);
  std::uint64_t remaining_items = 0;
  for (std::size_t a = 0; a < k; ++a) {
    remaining_items += static_cast<std::uint64_t>(n) * algos[a]->rounds();
  }

  std::vector<std::vector<Item>> becomes_ready(1);
  auto push_ready = [&becomes_ready](std::uint32_t t, Item item) {
    if (t >= becomes_ready.size()) becomes_ready.resize(t + 1);
    becomes_ready[t].push_back(item);
  };

  // A round is eligible once its inbound messages are all scheduled; its
  // earliest start is then max(prev round + 1, last arrival).
  auto try_activate = [&](std::uint32_t a, NodeId v) {
    auto& st = state[a][v];
    if (st.next_r > algos[a]->rounds()) return;
    const std::uint32_t tag = st.next_r - 1;
    std::uint32_t ready = st.prev_time_plus1;
    if (tag > 0) {
      const auto it = st.inbound.find(tag);
      if (it != st.inbound.end()) {
        if (it->second.remaining > 0) return;  // blocked on unscheduled senders
        ready = std::max(ready, it->second.last_arrival);
      }
    }
    push_ready(ready, {static_cast<std::uint32_t>(a), v, st.next_r});
  };

  for (std::size_t a = 0; a < k; ++a) {
    for (NodeId v = 0; v < n; ++v) try_activate(static_cast<std::uint32_t>(a), v);
  }

  std::vector<std::uint8_t> edge_used(g.num_directed_edges(), 0);
  std::vector<std::uint32_t> touched;
  std::vector<Item> deferred;
  std::vector<Item> current;
  std::uint32_t t = 0;
  std::uint32_t horizon_guard = 0;

  while (remaining_items > 0) {
    DASCHED_CHECK_MSG(++horizon_guard < 100'000'000u, "greedy scheduler diverged");
    current.clear();
    if (t < becomes_ready.size()) current.swap(becomes_ready[t]);
    current.insert(current.end(), deferred.begin(), deferred.end());
    deferred.clear();
    // Deterministic priority: algorithm, then node.
    std::sort(current.begin(), current.end(), [](const Item& x, const Item& y) {
      if (x.alg != y.alg) return x.alg < y.alg;
      return x.node < y.node;
    });

    for (const auto& item : current) {
      auto& st = state[item.alg][item.node];
      DASCHED_CHECK(st.next_r == item.vround);
      const auto it = out_edges[item.alg][item.node].find(item.vround);
      bool blocked = false;
      if (it != out_edges[item.alg][item.node].end()) {
        for (const auto d : it->second) {
          if (edge_used[d]) {
            blocked = true;
            break;
          }
        }
      }
      if (blocked) {
        deferred.push_back(item);
        continue;
      }
      // Schedule this round at time t.
      exec_time.set(item.alg, item.node, item.vround, t);
      --remaining_items;
      st.next_r = item.vround + 1;
      st.prev_time_plus1 = t + 1;
      if (it != out_edges[item.alg][item.node].end()) {
        for (const auto d : it->second) {
          edge_used[d] = 1;
          touched.push_back(d);
          const EdgeId e = d / 2;
          const auto [lo, hi] = g.endpoints(e);
          const NodeId receiver = (d % 2 == 0) ? hi : lo;
          auto& slot = state[item.alg][receiver].inbound[item.vround];
          DASCHED_CHECK(slot.remaining > 0);
          --slot.remaining;
          slot.last_arrival = std::max(slot.last_arrival, t + 1);
          if (slot.remaining == 0 &&
              state[item.alg][receiver].next_r == item.vround + 1) {
            try_activate(item.alg, receiver);
          }
        }
      }
      try_activate(item.alg, item.node);
    }

    for (const auto d : touched) edge_used[d] = 0;
    touched.clear();
    ++t;
  }

  // --- Realize and validate via the executor (unit capacity enforced). ---
  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  Executor executor(g, cfg);
  BaselineOutcome out;
  out.schedule = std::move(exec_time);
  out.exec = executor.run(algos, out.schedule);
  out.schedule_rounds = out.exec.num_big_rounds;
  return out;
}

}  // namespace dasched
