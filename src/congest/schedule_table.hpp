// Dense materialized big-round schedules.
//
// A schedule assigns every (algorithm, node, virtual round) triple the
// big-round in which that node executes the round, or kNeverScheduled. The
// executor used to consume schedules as a `std::function` callback, which put
// a type-erased indirect call on the hottest loop in the repo (once per slot
// at table-build time *and* once per delivered message for the causality
// check). ScheduleTable stores the same mapping as one contiguous
// `std::uint32_t` array -- row (alg, node) lives at
// `base[alg] + node * rounds[alg]` -- so every schedule lookup is a single
// indexed load, and the per-(alg, node) row is a span the executor can walk.
//
// Schedulers build tables directly (from per-algorithm delays, or slot by
// slot), and the callback form survives as `ScheduleTable::from_fn` plus a
// convenience `Executor::run` overload. Validation (gap-free round prefix per
// (alg, node), strictly increasing big-rounds) stays in the executor, which
// checks whatever table it is handed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"

namespace dasched {

/// Returned by a schedule for rounds a node never executes (e.g. truncated by
/// its clustering radius, Lemma 4.4).
inline constexpr std::uint32_t kNeverScheduled = ~std::uint32_t{0};

/// Big-round (0-based) at which node `v` executes virtual round `r` (1-based)
/// of algorithm `alg`, or kNeverScheduled. For every (alg, v) the scheduled
/// rounds must be a gap-free prefix 1..p with strictly increasing big-rounds
/// (checked by the executor).
using ExecTimeFn =
    std::function<std::uint32_t(std::size_t alg, NodeId v, std::uint32_t r)>;

class ScheduleTable {
 public:
  ScheduleTable() = default;

  /// An all-kNeverScheduled table for `algos.size()` algorithms over `n`
  /// nodes, sized from each algorithm's rounds(). Fill via row_mut()/set().
  ScheduleTable(std::span<const DistributedAlgorithm* const> algos, NodeId n);

  /// Materializes a callback schedule (one call per slot, never again).
  static ScheduleTable from_fn(std::span<const DistributedAlgorithm* const> algos,
                               NodeId n, const ExecTimeFn& fn);

  /// Delay schedule: round r of algorithm a runs in big-round delays[a] + r - 1
  /// at every node (Theorem 1.1 / sequential offsets / Moser-Tardos frames).
  static ScheduleTable from_delays(std::span<const DistributedAlgorithm* const> algos,
                                   NodeId n, std::span<const std::uint32_t> delays);

  /// Solo lockstep: virtual round r runs in big-round r - 1.
  static ScheduleTable lockstep(std::span<const DistributedAlgorithm* const> algos,
                                NodeId n);

  /// A copy with every scheduled slot multiplied by `factor` (kNeverScheduled
  /// preserved). This is the retry-slot stretch of the reliable-delivery
  /// layer (fault/reliable.hpp): factor - 1 empty big-rounds open up after
  /// each original one, preserving validity (gap-free prefixes stay gap-free,
  /// strictly increasing stays strictly increasing) and relative order.
  ScheduleTable scaled(std::uint32_t factor) const;

  std::size_t num_algorithms() const { return rounds_.size(); }
  NodeId num_nodes() const { return n_; }
  std::uint32_t rounds(std::size_t a) const { return rounds_[a]; }

  /// Big-round of (a, v, r), r 1-based; kNeverScheduled if never executed.
  std::uint32_t at(std::size_t a, NodeId v, std::uint32_t r) const {
    return table_[index(a, v, r)];
  }
  void set(std::size_t a, NodeId v, std::uint32_t r, std::uint32_t big_round) {
    table_[index(a, v, r)] = big_round;
  }

  /// Row of (a, v): big-rounds of virtual rounds 1..rounds(a), index r-1.
  std::span<const std::uint32_t> row(std::size_t a, NodeId v) const {
    return {table_.data() + base_[a] + std::size_t{v} * rounds_[a], rounds_[a]};
  }
  std::span<std::uint32_t> row_mut(std::size_t a, NodeId v) {
    return {table_.data() + base_[a] + std::size_t{v} * rounds_[a], rounds_[a]};
  }

  // --- Flat structure-of-arrays view (the executor's delivery barrier). ---
  // The table is one dense u32 lane; exposing its layout lets the executor
  // keep *parallel* per-slot lanes (e.g. the consumer-slot index of every
  // (alg, node, vround) within its big-round bucket) and turn a delivery
  // lookup into two indexed loads with no per-message row-span arithmetic.

  /// Total number of (alg, node, vround) slots in the dense table.
  std::size_t flat_size() const { return table_.size(); }

  /// Position of (a, v, r) in flat(); the same index is valid into any lane
  /// an engine keeps parallel to the table.
  std::size_t slot_index(std::size_t a, NodeId v, std::uint32_t r) const {
    return index(a, v, r);
  }

  /// The dense big-round lane itself: flat()[slot_index(a, v, r)] == at(a, v, r).
  std::span<const std::uint32_t> flat() const { return table_; }

 private:
  std::size_t index(std::size_t a, NodeId v, std::uint32_t r) const {
    DASCHED_DCHECK(a < rounds_.size() && v < n_ && r >= 1 && r <= rounds_[a]);
    return base_[a] + std::size_t{v} * rounds_[a] + (r - 1);
  }

  NodeId n_ = 0;
  std::vector<std::uint32_t> rounds_;  // perf-ok: per algorithm, built once
  std::vector<std::size_t> base_;      // perf-ok: per algorithm offset into table_
  std::vector<std::uint32_t> table_;   // perf-ok: big-rounds, built once per schedule
};

}  // namespace dasched
