// Integer math helpers: 64-bit modular arithmetic, deterministic primality,
// prime search (Bertrand's postulate guarantees success), logarithms.
//
// The k-wise independent generator (Lemma 4.3 of the paper) evaluates
// polynomials over GF(p) for a prime p chosen near the desired value range;
// next_prime() provides that prime.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

namespace dasched {

/// (a * b) mod m without overflow, for any 64-bit operands.
std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m);

/// (base ^ exp) mod m.
std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp, std::uint64_t m);

/// Deterministic Miller–Rabin for 64-bit integers (fixed witness set that is
/// provably sufficient below 2^64).
bool is_prime(std::uint64_t n);

/// Smallest prime >= n (n >= 2). By Bertrand's postulate this is < 2n.
std::uint64_t next_prime(std::uint64_t n);

/// floor(log2(x)) for x >= 1.
int floor_log2(std::uint64_t x);

/// ceil(log2(x)) for x >= 1.
int ceil_log2(std::uint64_t x);

/// Default physical rounds per big-round of every schedule, report and
/// service: the paper's Theta(log n) phase as ceil(log2 n), and 1 for n < 2.
constexpr std::uint32_t default_phase_len(std::uint64_t n) {
  return static_cast<std::uint32_t>(std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
}

/// ceil(a / b) for b > 0.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Natural log of n as used in "O(log n)" parameter choices: max(1, ceil(ln n)).
int log_ceil_ln(std::uint64_t n);

}  // namespace dasched
