#include "util/load_cells.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/check.hpp"

namespace dasched {

namespace {

/// Sorts keys ascending, using `spare` as the second buffer. Radix, not a
/// comparison sort: the verifier runs this count once per service cohort over
/// every scheduled message, and std::sort was about half of the verifier's
/// time. LSD over 16-bit digits; a digit every key shares is skipped
/// (typically two passes remain) and each pass counts only its digit's
/// [min, max] span, so memory stays at most 2^16 counters whatever the rounds
/// -- a corrupt schedule is a legitimate input.
void sort_keys(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& sorted) {
  if (keys.size() < 2) return;
  constexpr int kDigitBits = 16;
  constexpr int kDigits = 64 / kDigitBits;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  std::array<std::uint32_t, kDigits> lo;
  std::array<std::uint32_t, kDigits> hi;
  lo.fill(static_cast<std::uint32_t>(kDigitMask));
  hi.fill(0);
  for (const std::uint64_t key : keys) {
    for (int d = 0; d < kDigits; ++d) {
      const auto digit = static_cast<std::uint32_t>((key >> (d * kDigitBits)) & kDigitMask);
      lo[d] = std::min(lo[d], digit);
      hi[d] = std::max(hi[d], digit);
    }
  }
  std::vector<std::size_t> offset;
  for (int d = 0; d < kDigits; ++d) {
    if (lo[d] == hi[d]) continue;
    const int shift = d * kDigitBits;
    const std::uint32_t base = lo[d];
    offset.assign(std::size_t{hi[d] - base} + 1, 0);
    for (const std::uint64_t key : keys) {
      ++offset[((key >> shift) & kDigitMask) - base];
    }
    std::size_t next = 0;
    for (std::size_t& o : offset) next += std::exchange(o, next);
    sorted.resize(keys.size());
    for (const std::uint64_t key : keys) {
      sorted[offset[((key >> shift) & kDigitMask) - base]++] = key;
    }
    keys.swap(sorted);
  }
}

}  // namespace

void count_cells(std::vector<std::uint64_t>& keys, std::vector<LoadCell>& out) {
  std::vector<std::uint64_t> spare;
  count_cells(keys, out, spare);
}

void count_cells(std::vector<std::uint64_t>& keys, std::vector<LoadCell>& out,
                 std::vector<std::uint64_t>& spare) {
  out.clear();
  sort_keys(keys, spare);
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    out.push_back({static_cast<std::uint32_t>(keys[i] >> 32),
                   static_cast<std::uint32_t>(keys[i]), static_cast<std::uint32_t>(j - i)});
    i = j;
  }
}

std::vector<std::uint32_t> round_max_loads(std::span<const LoadCell> cells) {
  std::vector<std::uint32_t> max_load(cells.empty() ? 0 : cells.back().big_round + 1, 0);
  for (const LoadCell& cell : cells) {
    max_load[cell.big_round] = std::max(max_load[cell.big_round], cell.load);
  }
  return max_load;
}

std::uint64_t adaptive_length(std::span<const std::uint32_t> max_loads) {
  std::uint64_t rounds = 0;
  for (const auto load : max_loads) rounds += std::max<std::uint32_t>(1, load);
  return rounds;
}

FixedPhase fixed_length(std::span<const std::uint32_t> max_loads, std::uint32_t phase_len) {
  DASCHED_CHECK_GE(phase_len, 1u);
  FixedPhase f{static_cast<std::uint64_t>(max_loads.size()) * phase_len, 0};
  for (const auto load : max_loads) {
    if (load > phase_len) ++f.overflowing_phases;
  }
  return f;
}

}  // namespace dasched
