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

#include <cstdint>

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

}  // namespace dasched
