#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dasched {

void StatAccumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::quantile(double q) const {
  DASCHED_CHECK(!samples_.empty());
  DASCHED_CHECK(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  const auto n = samples_.size();
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  return samples_[std::min(rank, n - 1)];
}

std::size_t LogHistogram::bucket_index(double x) {
  if (!(x >= 1.0)) return 0;  // also catches NaN
  int exp = 0;
  std::frexp(x, &exp);  // x = m * 2^exp with m in [0.5, 1), so exp >= 1 here
  return std::min<std::size_t>(static_cast<std::size_t>(exp), kBuckets - 1);
}

double LogHistogram::bucket_floor(std::size_t i) {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
}

void LogHistogram::clear() {
  buckets_.fill(0);
  count_ = 0;
}

double LogHistogram::quantile(double q) const {
  DASCHED_CHECK(count_ > 0);
  DASCHED_CHECK(q >= 0.0 && q <= 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      // Geometric midpoint of [2^(i-1), 2^i); bucket 0 reports its floor.
      if (i == 0) return 0.0;
      return bucket_floor(i) * 1.5;
    }
  }
  return bucket_floor(kBuckets - 1);
}

void Histogram::add(double x) {
  moments_.add(x);
  buckets_.add(x);
  if (sample_cap_ == kUnlimited || retained_.count() < sample_cap_) {
    retained_.add(x);
  }
}

double Histogram::quantile(double q) const {
  DASCHED_CHECK(count() > 0);
  if (complete()) return retained_.quantile(q);
  return std::clamp(buckets_.quantile(q), min(), max());
}

}  // namespace dasched
