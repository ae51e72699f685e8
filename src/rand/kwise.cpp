#include "rand/kwise.hpp"

#include "util/check.hpp"
#include "util/math.hpp"

namespace dasched {

KWiseFamily::KWiseFamily(std::uint64_t prime, std::uint32_t k,
                         std::span<const std::uint64_t> seed)
    : prime_(prime), coeffs_(seed.begin(), seed.end()) {
  DASCHED_CHECK_MSG(is_prime(prime), "KWiseFamily modulus must be prime");
  DASCHED_CHECK(k >= 1);
  DASCHED_CHECK(seed.size() == k);
  for (auto& c : coeffs_) c %= prime_;
}

KWiseFamily::KWiseFamily(std::uint64_t prime, std::uint32_t k, Rng& rng)
    : prime_(prime) {
  DASCHED_CHECK_MSG(is_prime(prime), "KWiseFamily modulus must be prime");
  DASCHED_CHECK(k >= 1);
  coeffs_.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) coeffs_.push_back(rng.next_below(prime_));
}

std::uint64_t KWiseFamily::value(std::uint64_t x) const {
  x %= prime_;
  // Horner evaluation.
  std::uint64_t acc = 0;
  for (auto it = coeffs_.rbegin(); it != coeffs_.rend(); ++it) {
    acc = (mul_mod(acc, x, prime_) + *it) % prime_;
  }
  return acc;
}

double KWiseFamily::unit_value(std::uint64_t x) const {
  return static_cast<double>(value(x)) / static_cast<double>(prime_);
}

}  // namespace dasched
