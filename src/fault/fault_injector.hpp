// FaultInjector: the executable form of a FaultPlan.
//
// The injector answers three questions on the executor's send/deliver path:
//   * is node v crashed at big-round t?           (crash-stop, preprocessed
//                                                  into a dense per-node array)
//   * is undirected edge e dark at big-round t?   (outage intervals, indexed
//                                                  per edge)
//   * is transmission attempt `attempt` of the (alg, directed_edge, tag)
//     message dropped / duplicated?               (stateless seeded decision)
//
// Determinism contract: every answer is a pure function of the plan and the
// query arguments. Random drop/duplicate decisions hash the message identity
// (alg, directed edge, sender virtual round, attempt index) together with the
// plan seed into a uniform [0, 1) value -- no shared RNG state is consumed,
// so decisions are independent of the order in which messages are processed
// and of `ExecConfig::num_threads` sharding. Retransmissions pass a fresh
// attempt index and therefore redraw independently. See docs/FAULTS.md for
// the full argument.
//
// Thread-safety contract: link_down, node_crashed, drop and duplicate (and
// crash_round) are const, read only state fixed at construction, and the
// class has no `mutable` members -- so any number of threads may call them
// at once. The executor relies on this: every execute shard on the worker
// pool decides the fates of its own staged messages concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dasched {

class FaultInjector {
 public:
  /// Preprocesses `plan` against `g` (borrowed; must outlive the injector).
  /// Crashes at out-of-range nodes and outages at out-of-range edges are
  /// rejected by DASCHED_CHECK.
  FaultInjector(const Graph& g, FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  bool any_faults() const { return plan_.any_faults(); }

  /// First big-round at which v no longer executes (kNoCrash if never).
  std::uint32_t crash_round(NodeId v) const { return crash_round_[v]; }
  bool node_crashed(NodeId v, std::uint32_t t) const {
    return t >= crash_round_[v];
  }
  std::uint32_t num_crashes() const {
    return static_cast<std::uint32_t>(plan_.crashes.size());
  }

  /// True if undirected edge e delivers nothing at big-round t.
  bool link_down(EdgeId e, std::uint32_t t) const;

  /// Bernoulli(drop_rate) for one transmission attempt; pure in its
  /// arguments (order- and thread-count-independent).
  bool drop(std::uint32_t alg, std::uint32_t directed_edge, std::uint32_t tag,
            std::uint32_t attempt) const {
    return plan_.drop_rate > 0.0 &&
           unit(alg, directed_edge, tag, attempt, kDropSalt) < plan_.drop_rate;
  }

  /// Bernoulli(duplicate_rate) for one delivered message; independent of the
  /// drop decision (distinct salt).
  bool duplicate(std::uint32_t alg, std::uint32_t directed_edge, std::uint32_t tag,
                 std::uint32_t attempt) const {
    return plan_.duplicate_rate > 0.0 &&
           unit(alg, directed_edge, tag, attempt, kDuplicateSalt) <
               plan_.duplicate_rate;
  }

 private:
  static constexpr std::uint64_t kDropSalt = 0x64726f705f5f5f31ULL;
  static constexpr std::uint64_t kDuplicateSalt = 0x6475705f5f5f5f31ULL;

  /// Uniform [0, 1) from the message identity: one splitmix64 chain over the
  /// packed key, mapped to a double exactly like Rng::next_double.
  double unit(std::uint32_t alg, std::uint32_t directed_edge, std::uint32_t tag,
              std::uint32_t attempt, std::uint64_t salt) const {
    const std::uint64_t h = seed_combine(
        plan_.seed ^ salt, (std::uint64_t{alg} << 32) | directed_edge,
        (std::uint64_t{tag} << 32) | attempt);
    return static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
  }

  FaultPlan plan_;
  std::vector<std::uint32_t> crash_round_;  // per node; kNoCrash default
  /// plan_.outages sorted by edge for binary search in link_down.
  std::vector<LinkOutage> sorted_outages_;
};

}  // namespace dasched
