// k-wise independent random value family via polynomial evaluation over GF(p)
// (the classical Reed-Solomon / Joffe construction the paper's Lemma 4.3
// invokes: "the classical k-wise independent pseudo-randomness construction
// via Reed-Solomon codes").
//
// A seed of k field elements a_0..a_{k-1} defines the degree-(k-1) polynomial
// f(x) = sum a_j x^j over GF(p). The family {f(0), f(1), ..., f(p-1)} is
// exactly k-wise independent and uniform over GF(p). The paper shares
// Theta(log^2 n) seed bits per cluster (k = Theta(log n) coefficients of
// Theta(log n) bits each) and expands them into poly(n) many Theta(log n)-bit
// values used as per-algorithm random delays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace dasched {

class KWiseFamily {
 public:
  /// Family over GF(`prime`) with independence parameter `k` (seed size k).
  /// `prime` must be prime (checked) and fit the value range you need:
  /// values are uniform over [0, prime).
  KWiseFamily(std::uint64_t prime, std::uint32_t k, std::span<const std::uint64_t> seed);

  /// Convenience: draw the seed from `rng`.
  KWiseFamily(std::uint64_t prime, std::uint32_t k, Rng& rng);

  /// Evaluate f(x). Values for distinct x are k-wise independent, each
  /// uniform over [0, prime).
  std::uint64_t value(std::uint64_t x) const;

  /// Maps value(x) into [0, 1): k-wise independent uniform reals (up to the
  /// 1/prime discretization).
  double unit_value(std::uint64_t x) const;

  std::uint64_t prime() const { return prime_; }
  std::uint32_t independence() const { return static_cast<std::uint32_t>(coeffs_.size()); }
  std::span<const std::uint64_t> seed() const { return coeffs_; }

 private:
  std::uint64_t prime_;
  std::vector<std::uint64_t> coeffs_;  // a_0..a_{k-1}, each in [0, prime)
};

}  // namespace dasched
