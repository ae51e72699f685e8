// The per-(round, directed-edge) load surface: one cell type, one count and
// one join.
//
// Every bound in the paper is a statement about this surface (Section 2's
// time-expanded graph; Theorem 1.1's O(congestion + dilation log n)). The
// verifier's static loads, the profiler's measured cells, a pattern's
// per-round cells and the delay analyses all produce it as a list of
// LoadCells sorted by (round, edge); count_cells() builds such a list from
// packed transmissions, and join_cells() compares two of them in one linear
// merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dasched {

/// One per-(round, directed-edge) load. `big_round` is whatever round the
/// surface is indexed by: a big-round for schedules and runs, a virtual round
/// for a communication pattern. Surfaces hold only cells of load >= 1.
struct LoadCell {
  std::uint32_t big_round = 0;
  std::uint32_t edge = 0;  // directed edge id
  std::uint32_t load = 0;
  friend bool operator<(const LoadCell& x, const LoadCell& y) {
    if (x.big_round != y.big_round) return x.big_round < y.big_round;
    return x.edge < y.edge;
  }
  friend bool operator==(const LoadCell&, const LoadCell&) = default;
};

/// One big-round of an engine run as the round close records it
/// (ExecutionResult::round_records, entry t for big-round t). The round's max
/// edge load is entry t of ExecutionResult::max_load_per_big_round; the
/// profiler and the telemetry read both after the run.
struct RoundRecord {
  std::uint64_t messages = 0;  // transmissions, retransmissions included
  std::uint64_t retries = 0;   // retransmissions among them
  std::uint64_t events = 0;    // events executed (crash-stop skips excluded)
  std::uint64_t inbox = 0;     // inbox messages the events consumed
  /// Steady-clock nanoseconds from the previous round's close (for round 0,
  /// the loop's start) to this one's. The one field that varies from run to
  /// run: it is outside the bit-identity contract and result_fingerprint.
  std::uint64_t wall_ns = 0;
};

/// One transmission on `edge` in `round`, packed so that integer order is
/// (round, edge) order.
constexpr std::uint64_t cell_key(std::uint32_t round, std::uint32_t edge) {
  return (std::uint64_t{round} << 32) | edge;
}

/// Replaces `out` with the surface of the transmissions in `keys` (cell_key
/// values): one cell per distinct key, sorted by (round, edge), its load the
/// key's multiplicity. Sorts `keys` in place.
void count_cells(std::vector<std::uint64_t>& keys, std::vector<LoadCell>& out);

/// The same count with the radix sort's second key buffer owned by the caller
/// (its contents are clobbered), so a caller that counts many surfaces -- the
/// service daemon's verifier gate, once per cohort -- reuses its capacity.
void count_cells(std::vector<std::uint64_t>& keys, std::vector<LoadCell>& out,
                 std::vector<std::uint64_t>& spare);

/// Max load of each round 0..last round of the sorted `cells` (0 for rounds
/// without a cell); empty for an empty surface.
std::vector<std::uint32_t> round_max_loads(std::span<const LoadCell> cells);

/// The two schedule-length measures of a per-round max-load vector, one
/// entry per (big-)round. Adaptive: each round lasts as many physical rounds
/// as its busiest edge needs, at least one -- sum of max(1, load).
std::uint64_t adaptive_length(std::span<const std::uint32_t> max_loads);

struct FixedPhase {
  std::uint64_t physical_rounds;
  std::uint64_t overflowing_phases;  // phases whose max load exceeded the length
};
/// Fixed phases of `phase_len` >= 1 physical rounds (the paper's w.h.p.
/// regime): rounds * phase_len, with the phases that overflowed counted.
FixedPhase fixed_length(std::span<const std::uint32_t> max_loads, std::uint32_t phase_len);

/// Calls fn(cell, load_a, load_b) once for each cell of the union of the
/// sorted surfaces `a` and `b`, in (round, edge) order. A cell missing from
/// one side reads as load 0 there; `cell` is the key (its own `load` field is
/// one side's and should not be read).
template <class Fn>
void join_cells(std::span<const LoadCell> a, std::span<const LoadCell> b, Fn&& fn) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      fn(a[i], a[i].load, std::uint32_t{0});
      ++i;
    } else if (i == a.size() || b[j] < a[i]) {
      fn(b[j], std::uint32_t{0}, b[j].load);
      ++j;
    } else {
      fn(a[i], a[i].load, b[j].load);
      ++i;
      ++j;
    }
  }
}

}  // namespace dasched
