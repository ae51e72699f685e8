#include <gtest/gtest.h>

#include <set>

#include "util/load_cells.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <sstream>

namespace dasched {
namespace {

TEST(Math, MulModMatchesSmallCases) {
  EXPECT_EQ(mul_mod(7, 9, 10), 3u);
  EXPECT_EQ(mul_mod(0, 123, 7), 0u);
  EXPECT_EQ(mul_mod(~0ULL, ~0ULL, ~0ULL), 0u);  // (m)(m) mod m with a=b=m... a%m==0? no: a=2^64-1=m -> 0
}

TEST(Math, MulModLargeOperands) {
  // (2^63)(3) mod (2^64 - 59): compute via __int128 reference.
  const std::uint64_t a = 1ULL << 63;
  const std::uint64_t b = 3;
  const std::uint64_t m = ~0ULL - 58;
  const auto expected = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
  EXPECT_EQ(mul_mod(a, b, m), expected);
}

TEST(Math, PowMod) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(3, 0, 7), 1u);
  EXPECT_EQ(pow_mod(5, 3, 1), 0u);
  // Fermat: a^(p-1) = 1 mod p.
  const std::uint64_t p = 1000000007ULL;
  EXPECT_EQ(pow_mod(123456789, p - 1, p), 1u);
}

TEST(Math, IsPrimeSmall) {
  const std::set<std::uint64_t> primes_below_100 = {2,  3,  5,  7,  11, 13, 17, 19, 23,
                                                    29, 31, 37, 41, 43, 47, 53, 59, 61,
                                                    67, 71, 73, 79, 83, 89, 97};
  for (std::uint64_t n = 0; n < 100; ++n) {
    EXPECT_EQ(is_prime(n), primes_below_100.contains(n)) << n;
  }
}

TEST(Math, IsPrimeLarge) {
  EXPECT_TRUE(is_prime(1000000007ULL));
  EXPECT_TRUE(is_prime(2305843009213693951ULL));  // Mersenne prime 2^61 - 1
  EXPECT_FALSE(is_prime(2305843009213693951ULL - 2));
  EXPECT_FALSE(is_prime(1000000007ULL * 3));
}

TEST(Math, NextPrime) {
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(8), 11u);
  EXPECT_EQ(next_prime(14), 17u);
  // Bertrand: next_prime(n) < 2n for n > 1.
  for (std::uint64_t n : {100ULL, 1000ULL, 123456ULL, 1000000ULL}) {
    const auto p = next_prime(n);
    EXPECT_TRUE(is_prime(p));
    EXPECT_LT(p, 2 * n);
  }
}

TEST(Math, Logs) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_GE(log_ceil_ln(1000), 7);  // ln(1000) ~ 6.9
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::array<int, 10> counts{};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const auto x = rng.next_below(10);
    ASSERT_LT(x, 10u);
    ++counts[x];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 50);
  }
}

TEST(Rng, NextInBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.next_in(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SeedCombineSpreads) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 30; ++a) {
    for (std::uint64_t b = 0; b < 30; ++b) {
      seen.insert(seed_combine(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 900u);
  EXPECT_NE(seed_combine(1, 2), seed_combine(2, 1));
}

TEST(Stats, AccumulatorMoments) {
  StatAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Stats, SampleSetQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.9), 90.0, 1.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo");
  t.set_header({"n", "value"});
  t.add_row({"1", "long-cell"});
  t.add_row({"1000", "x"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("long-cell"), std::string::npos);
  EXPECT_NE(text.find("1000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumericFormatting) {
  EXPECT_EQ(Table::fmt(std::int64_t{-5}), "-5");
  EXPECT_EQ(Table::fmt(std::uint64_t{7}), "7");
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
}

// join_cells visits every cell of the union exactly once, in (round, edge)
// order, with each side's load (0 where a side lacks the cell).
TEST(LoadCells, JoinVisitsEachUnionCellOnceInOrder) {
  struct Visit {
    std::uint32_t round, edge, a, b;
    bool operator==(const Visit&) const = default;
  };
  const auto join = [](const std::vector<LoadCell>& a, const std::vector<LoadCell>& b) {
    std::vector<Visit> visits;
    join_cells(a, b, [&](const LoadCell& cell, std::uint32_t la, std::uint32_t lb) {
      visits.push_back({cell.big_round, cell.edge, la, lb});
    });
    return visits;
  };
  // Disjoint: every cell is one-sided.
  EXPECT_EQ(join({{1, 5, 2}, {3, 0, 1}}, {{0, 9, 4}, {2, 1, 1}, {4, 0, 3}}),
            (std::vector<Visit>{{0, 9, 0, 4}, {1, 5, 2, 0}, {2, 1, 0, 1},
                                {3, 0, 1, 0}, {4, 0, 0, 3}}));
  // Identical: every cell is joined once, never twice.
  const std::vector<LoadCell> same{{0, 1, 1}, {0, 7, 2}, {1u << 20, 1u << 17, 5}};
  EXPECT_EQ(join(same, same), (std::vector<Visit>{{0, 1, 1, 1},
                                                  {0, 7, 2, 2},
                                                  {1u << 20, 1u << 17, 5, 5}}));
  // Interleaved: shared cells between one-sided runs on either side, same
  // round different edges, and one side running out first.
  EXPECT_EQ(join({{1, 1, 1}, {1, 2, 2}, {1, 4, 1}, {2, 0, 3}},
                 {{1, 2, 5}, {1, 3, 1}, {2, 0, 3}, {2, 6, 1}, {9, 9, 9}}),
            (std::vector<Visit>{{1, 1, 1, 0}, {1, 2, 2, 5}, {1, 3, 0, 1}, {1, 4, 1, 0},
                                {2, 0, 3, 3}, {2, 6, 0, 1}, {9, 9, 0, 9}}));
  EXPECT_TRUE(join({}, {}).empty());
}

TEST(LoadCells, RoundMaxLoadsFillsQuietRoundsWithZero) {
  EXPECT_TRUE(round_max_loads({}).empty());
  const std::vector<LoadCell> cells{{0, 3, 2}, {0, 8, 5}, {3, 1, 1}};
  EXPECT_EQ(round_max_loads(cells), (std::vector<std::uint32_t>{5, 0, 0, 1}));
}

}  // namespace
}  // namespace dasched
