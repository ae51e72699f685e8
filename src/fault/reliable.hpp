// Reliable delivery over a faulty network: bounded retransmissions with
// exponential slot backoff, plus the schedule stretch that reserves the
// retry slots.
//
// Semantics (the executor implements these in its per-shard fate decision
// and serial fate commit before the delivery barrier, see
// congest/executor.cpp):
//   * Acks are free: a transmission attempt that is not dropped is known
//     delivered (synchronous model, acks ride the reverse direction of the
//     same big-round and are never lost in this model).
//   * A dropped attempt is retransmitted while the sender is alive and the
//     retry budget lasts: attempt i (1-based) of a message first transmitted
//     in big-round t is re-sent in big-round t + 2^i - 1, i.e. the gap after
//     failed attempt a (0-based) is 2^a slots.
//   * Each retransmission occupies one bandwidth slot on its directed edge in
//     the big-round it is sent -- retries are not free; they show up in edge
//     loads and therefore in the realized schedule length.
//   * The receiver de-duplicates: with the reliable layer active, at most one
//     copy of each (alg, edge, virtual-round) message reaches the inbox.
//
// Why stretching by 2^R preserves causality: with R retries the last attempt
// lands 2^R - 1 slots after the original transmission. Scaling every
// scheduled slot by S = 2^R maps a sender event at big-round t to S*t and the
// earliest causally-after consumer event (originally at some t' >= t + 1) to
// S*t' >= S*t + S, while the last retransmission lands at S*t + 2^R - 1
// < S*t + S. So every retry completes strictly before every consumer that
// depended on the original message, and a faulty run has causality
// violations only when a message exhausts its whole retry budget (counted as
// `lost`, not as a violation) -- i.e. retries turn late deliveries back into
// completed runs at a measurable round-overhead cost. docs/FAULTS.md spells
// this out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/schedule_table.hpp"
#include "util/check.hpp"

namespace dasched {

struct RetryPolicy {
  /// Extra transmission attempts after the first; 0 disables the reliable
  /// layer entirely.
  std::uint32_t max_retries = 0;

  /// Offset of (1-based) attempt `attempt` from the original transmission
  /// round: 2^attempt - 1 (exponential backoff over slots).
  std::uint32_t backoff_offset(std::uint32_t attempt) const {
    DASCHED_CHECK(attempt >= 1 && attempt <= 20);
    return (1u << attempt) - 1;
  }

  /// Big-round stretch factor reserving every retry slot: 2^max_retries.
  std::uint32_t stretch_factor() const {
    DASCHED_CHECK_MSG(max_retries <= 20, "retry budget unreasonably large");
    return max_retries == 0 ? 1 : (1u << max_retries);
  }
};

/// Stretches a schedule so retry slots exist between consecutive original
/// big-rounds: every scheduled slot t becomes t * stretch_factor().
inline ScheduleTable stretch_for_retries(const ScheduleTable& schedule,
                                         RetryPolicy policy) {
  return schedule.scaled(policy.stretch_factor());
}

/// Per-big-round retransmission bookkeeping: messages awaiting a retry slot,
/// bucketed by the absolute big-round in which they are due. Generic over the
/// staged-message type M (owned by the executor); drained in FIFO order per
/// round, which is deterministic because entries are scheduled by the
/// executor's serial fate commit, in canonical order.
template <typename M>
class RetryQueue {
 public:
  struct Entry {
    M msg;
    std::uint32_t attempt;  // 1-based attempt index this entry will make
  };

  void schedule(std::uint32_t round, M msg, std::uint32_t attempt) {
    if (round >= buckets_.size()) buckets_.resize(std::size_t{round} + 1);
    auto& bucket = buckets_[round];
    if (bucket.capacity() == 0 && spare_.capacity() != 0) {
      // Recycle a previously drained bucket's storage instead of allocating:
      // in steady state retries cycle through a bounded set of future rounds,
      // so the spare keeps the reliable layer off the allocator.
      bucket = std::move(spare_);
      spare_ = {};
    }
    bucket.push_back({std::move(msg), attempt});
    ++pending_;
    last_round_ = std::max(last_round_, round);
  }

  /// Drains and returns the entries due at `round` (empty if none).
  std::vector<Entry> take(std::uint32_t round) {
    if (round >= buckets_.size()) return {};
    auto due = std::move(buckets_[round]);
    buckets_[round].clear();
    pending_ -= due.size();
    return due;
  }

  /// Allocation-free drain: copies the entries due at `round` into `out`
  /// (cleared first; capacity reused) and recycles the bucket's storage for
  /// future schedule() calls. Requires M trivially copyable.
  void drain_into(std::uint32_t round, std::vector<Entry>& out) {
    static_assert(std::is_trivially_copyable_v<M>);
    out.clear();
    if (round >= buckets_.size()) return;
    auto& bucket = buckets_[round];
    out.insert(out.end(), bucket.begin(), bucket.end());
    pending_ -= bucket.size();
    bucket.clear();
    if (bucket.capacity() > spare_.capacity()) std::swap(bucket, spare_);
  }

  std::uint64_t pending() const { return pending_; }
  /// Highest round any entry was ever scheduled for (0 if none ever).
  std::uint32_t last_round() const { return last_round_; }

 private:
  // perf-ok: bucket storage is recycled through spare_, not reallocated.
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> spare_;  // recycled capacity from drained buckets
  std::uint64_t pending_ = 0;
  std::uint32_t last_round_ = 0;
};

}  // namespace dasched
