#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>

#include "rand/distributions.hpp"
#include "rand/kwise.hpp"
#include "util/math.hpp"

namespace dasched {
namespace {

TEST(KWise, SeedRoundTrip) {
  Rng rng(1);
  KWiseFamily f(101, 8, rng);
  EXPECT_EQ(f.seed().size(), 8u);
  const KWiseFamily g(101, 8, f.seed());
  for (std::uint64_t x = 0; x < 200; ++x) EXPECT_EQ(f.value(x), g.value(x));
}

TEST(KWise, ValuesInRange) {
  Rng rng(2);
  KWiseFamily f(1009, 5, rng);
  for (std::uint64_t x = 0; x < 5000; ++x) {
    EXPECT_LT(f.value(x), 1009u);
    const double u = f.unit_value(x);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(KWise, DegenerateSeedIsConstant) {
  const std::array<std::uint64_t, 3> seed = {42, 0, 0};
  KWiseFamily f(101, 3, std::span<const std::uint64_t>(seed));
  for (std::uint64_t x = 0; x < 50; ++x) EXPECT_EQ(f.value(x), 42u);
}

// Exact pairwise independence: over all p^2 seeds of a degree-1 family, each
// (value(x1), value(x2)) pair occurs exactly once. We verify uniformity of
// pairs by iterating all seeds for a small prime.
TEST(KWise, ExactPairwiseIndependenceSmallField) {
  const std::uint64_t p = 7;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> counts;
  for (std::uint64_t a0 = 0; a0 < p; ++a0) {
    for (std::uint64_t a1 = 0; a1 < p; ++a1) {
      const std::array<std::uint64_t, 2> seed = {a0, a1};
      KWiseFamily f(p, 2, std::span<const std::uint64_t>(seed));
      ++counts[{f.value(2), f.value(5)}];
    }
  }
  EXPECT_EQ(counts.size(), p * p);
  for (const auto& [pair, c] : counts) EXPECT_EQ(c, 1) << pair.first << "," << pair.second;
}

// Statistical check of k-wise behaviour: empirical mean/variance of values
// match uniform over [0, p).
TEST(KWise, EmpiricalUniformity) {
  Rng rng(3);
  const std::uint64_t p = next_prime(1 << 14);
  double sum = 0;
  const int trials = 20000;
  KWiseFamily f(p, 12, rng);
  for (int x = 0; x < trials; ++x) sum += f.unit_value(static_cast<std::uint64_t>(x));
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(UniformDelay, RangeAndCoverage) {
  UniformDelay d(10);
  EXPECT_EQ(d.support_size(), 10u);
  std::array<int, 10> counts{};
  const int steps = 10000;
  for (int i = 0; i < steps; ++i) {
    const auto delay = d.delay_from_unit(i / static_cast<double>(steps));
    ASSERT_LT(delay, 10u);
    ++counts[delay];
  }
  for (const int c : counts) EXPECT_EQ(c, steps / 10);
}

TEST(BlockDelay, StructureMatchesPaper) {
  // L = 16, beta = 4 blocks, alpha = 0.5 -> sizes 16, 8, 4, 2.
  BlockDelayDistribution d(16, 4, 0.5);
  EXPECT_EQ(d.num_blocks(), 4u);
  EXPECT_EQ(d.block_size(0), 16u);
  EXPECT_EQ(d.block_size(1), 8u);
  EXPECT_EQ(d.block_size(2), 4u);
  EXPECT_EQ(d.block_size(3), 2u);
  EXPECT_EQ(d.support_size(), 30u);
  // Support is Theta(L / (1 - alpha)): here <= 2L.
  EXPECT_LE(d.support_size(), 2u * 16);
}

TEST(BlockDelay, MassPerBlockIsOneOverBeta) {
  BlockDelayDistribution d(16, 4, 0.5);
  for (std::uint32_t b = 0; b < d.num_blocks(); ++b) {
    double mass = 0;
    for (std::uint32_t i = 0; i < d.block_size(b); ++i) {
      mass += d.pmf(d.block_offset(b) + i);
    }
    EXPECT_NEAR(mass, 0.25, 1e-12);
  }
}

TEST(BlockDelay, UnitMappingIsMeasurePreserving) {
  BlockDelayDistribution d(8, 3, 0.5);
  // Push a fine uniform grid through the map and compare to pmf.
  std::map<std::uint32_t, int> counts;
  const int steps = 120000;
  for (int i = 0; i < steps; ++i) {
    ++counts[d.delay_from_unit((i + 0.5) / steps)];
  }
  for (std::uint32_t delay = 0; delay < d.support_size(); ++delay) {
    const double expected = d.pmf(delay) * steps;
    EXPECT_NEAR(counts[delay], expected, expected * 0.05 + 2) << "delay " << delay;
  }
}

TEST(BlockDelay, BlockOfInverts) {
  BlockDelayDistribution d(10, 5, 0.6);
  for (std::uint32_t b = 0; b < d.num_blocks(); ++b) {
    for (std::uint32_t i = 0; i < d.block_size(b); ++i) {
      EXPECT_EQ(d.block_of(d.block_offset(b) + i), b);
    }
  }
}

TEST(BlockDelay, LaterBlocksAreRarerPerPoint) {
  BlockDelayDistribution d(64, 6, 0.5);
  // pmf increases per point as block size shrinks: mass 1/beta spread over
  // fewer points.
  EXPECT_LT(d.pmf(0), d.pmf(d.block_offset(5)));
}

TEST(TruncatedExponential, CapAndMonotonicity) {
  TruncatedExponentialRadius r(10.0, 3.0);
  EXPECT_EQ(r.max_radius(), 30u);
  EXPECT_EQ(r.radius_from_unit(0.0), 0u);
  // Inverse CDF is monotone.
  std::uint32_t prev = 0;
  for (double u = 0.0; u < 1.0; u += 0.001) {
    const auto x = r.radius_from_unit(u);
    EXPECT_GE(x, prev);
    EXPECT_LE(x, 30u);
    prev = x;
  }
}

TEST(TruncatedExponential, MemorylessTailRatio) {
  // P[r >= z] ~ e^{-z/scale} before truncation: check the empirical ratio
  // P[r >= 2s] / P[r >= s] ~ e^{-1}.
  TruncatedExponentialRadius dist(8.0, 10.0);
  Rng rng(5);
  const int trials = 200000;
  int ge_s = 0;
  int ge_2s = 0;
  for (int i = 0; i < trials; ++i) {
    const auto r = dist.sample(rng);
    if (r >= 8) ++ge_s;
    if (r >= 16) ++ge_2s;
  }
  const double ratio = static_cast<double>(ge_2s) / ge_s;
  EXPECT_NEAR(ratio, std::exp(-1.0), 0.02);
}

TEST(TruncatedExponential, MeanApproxScale) {
  TruncatedExponentialRadius dist(12.0, 10.0);
  Rng rng(6);
  double sum = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += dist.sample(rng);
  // Mean of floor(Exp(scale)) is scale - 1/2 + O(1/scale).
  EXPECT_NEAR(sum / trials, 11.5, 0.25);
}

// Chi-square check of 3-wise uniformity: over many random seeds of a k>=3
// family, the joint distribution of (value(x1), value(x2), value(x3)) reduced
// mod 2 must be uniform over the 8 cells.
TEST(KWise, TripleUniformityChiSquare) {
  Rng rng(31);
  const std::uint64_t p = 101;
  std::array<std::uint64_t, 8> counts{};
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) {
    KWiseFamily f(p, 4, rng);
    const std::uint64_t b0 = f.value(3) & 1;
    const std::uint64_t b1 = f.value(17) & 1;
    const std::uint64_t b2 = f.value(55) & 1;
    ++counts[(b0 << 2) | (b1 << 1) | b2];
  }
  // Parity of uniform [0,101) is slightly biased (51/101 even); allow for
  // that plus noise: each cell within 12% of trials/8.
  const double expected = trials / 8.0;
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 0.12 * expected);
  }
}

}  // namespace
}  // namespace dasched
