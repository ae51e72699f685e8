// Canonical FNV-1a fingerprinting, shared by every layer that keys or pins
// results on a hash: the executor's golden-fingerprint tests, the service
// profile cache's (program, graph) keys, and the bench identity columns.
//
// The mixing discipline is fixed forever: 64-bit FNV-1a applied byte-wise,
// little-end first, to each 64-bit word. The golden constants recorded in
// tests (e.g. tests/test_fault.cpp's kGoldenOutputHash) were produced with
// exactly this function, so changing the offset, the prime, or the byte
// order invalidates every pinned value in the repo at once -- that blast
// radius is deliberate, it is what makes the fingerprints comparable across
// subsystems.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dasched {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// kFnvPrime^i for i = 0..8 (mod 2^64).
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t i = 1; i < powers.size(); ++i) powers[i] = powers[i - 1] * kFnvPrime;
  return powers;
}();

/// One FNV-1a step: folds the eight bytes of `x` (little-end first) into `h`.
/// Folding a zero byte only multiplies by the prime (h ^ 0 == h), so the
/// zero high bytes of a small word -- sizes, flags, loads, most outputs --
/// fold in one multiply by a power of it: the same digest as eight
/// byte steps, at a fraction of the serial multiply chain.
constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t x) {
  const int bytes = (std::bit_width(x) + 7) / 8;
  for (int i = 0; i < bytes; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h * kFnvPrimePowers[static_cast<std::size_t>(8 - bytes)];
}

/// Streaming accumulator over 64-bit words and byte strings. Order-sensitive:
/// mix the same fields in the same order to get the same digest.
class Fingerprint {
 public:
  constexpr Fingerprint& mix(std::uint64_t x) {
    h_ = fnv1a_mix(h_, x);
    return *this;
  }

  /// Bytes are widened to one word each so a string mix can never collide
  /// with a word mix of the same raw bytes at a different alignment.
  constexpr Fingerprint& mix_bytes(std::string_view s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
    return *this;
  }

  constexpr std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

}  // namespace dasched
