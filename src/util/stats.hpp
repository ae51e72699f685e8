// Small statistics helpers for experiment harnesses: streaming accumulator
// (mean / min / max), exact quantiles over stored samples, a
// fixed-size log-bucketed (HDR-style) histogram, and a capped histogram that
// combines all three for O(1)-memory distributions over long runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dasched {

/// Streaming accumulator -- O(1) memory.
class StatAccumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Stores all samples; supports exact quantiles. Used where distributions
/// (not just moments) matter, e.g. per-big-round edge loads.
///
/// NOT thread-safe, including the const accessors: `quantile()` and
/// `sorted()` lazily sort the stored samples through
/// `mutable` members, so two concurrent readers race on the sort. Confine
/// each SampleSet to one thread or guard it externally.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = samples_.size() <= 1;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  /// q in [0, 1]; q = 0.5 is the median. Uses nearest-rank on sorted data.
  double quantile(double q) const;

  /// The samples in ascending order (sorts on first use, like quantile()).
  /// The reference stays valid until the next `add`. This is the accessor
  /// exports should use: it makes the lazy mutation explicit at the call
  /// site and lets callers assert on ordering.
  const std::vector<double>& sorted() const {
    ensure_sorted();
    return samples_;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-size base-2 log-bucketed histogram (HDR-style, coarse): bucket 0
/// holds every x < 1 (including non-positive values), bucket i in [1, 62]
/// holds [2^(i-1), 2^i), bucket 63 holds the rest. add() is two array ops and
/// never allocates, so it is safe on the executor's message hot path; the
/// trade-off is ~2x value resolution, which is plenty for load-shape
/// questions ("are edge loads 4-ish or 400-ish per big-round?"). Exact
/// quantiles stay SampleSet's job.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t bucket_index(double x);
  /// Inclusive lower bound of bucket `i` (0 for bucket 0).
  static double bucket_floor(std::size_t i);

  void add(double x) {
    ++buckets_[bucket_index(x)];
    ++count_;
  }
  void clear();

  std::uint64_t count() const { return count_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  /// Nearest-rank quantile resolved to bucket granularity: returns the
  /// geometric midpoint of the bucket holding rank q. Within a factor of 2 of
  /// the exact quantile by construction.
  double quantile(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// Distribution accumulator with bounded memory: exact streaming moments
/// (min/max/mean), a LogHistogram for shape, and the first `sample_cap`
/// samples retained verbatim. While the sample list is complete (count <=
/// cap) quantiles are exact; past the cap they fall back to the log-bucket
/// approximation. This is what MetricsRegistry stores per histogram name, so
/// a profiled million-message run costs O(cap) memory per metric instead of
/// O(messages) -- pass sample_cap = kUnlimited to retain everything (the old
/// behavior, behind an explicit choice).
class Histogram {
 public:
  static constexpr std::size_t kDefaultSampleCap = 4096;
  static constexpr std::size_t kUnlimited = ~std::size_t{0};

  explicit Histogram(std::size_t sample_cap = kDefaultSampleCap)
      : sample_cap_(sample_cap) {}

  void add(double x);

  std::size_t count() const { return moments_.count(); }
  bool empty() const { return moments_.count() == 0; }
  double min() const { return moments_.min(); }
  double max() const { return moments_.max(); }
  double mean() const { return moments_.mean(); }
  double sum() const { return moments_.sum(); }

  /// True while every added sample is retained (count() <= cap).
  bool complete() const { return retained_.count() == count(); }
  std::size_t retained() const { return retained_.count(); }
  std::size_t sample_cap() const { return sample_cap_; }

  /// Exact (nearest-rank over retained samples) while complete(); bucket
  /// midpoint clamped to [min, max] afterwards.
  double quantile(double q) const;

  /// Retained samples in ascending order (all samples while complete()).
  const std::vector<double>& sorted() const { return retained_.sorted(); }

  const LogHistogram& buckets() const { return buckets_; }

 private:
  std::size_t sample_cap_;
  StatAccumulator moments_;
  LogHistogram buckets_;
  SampleSet retained_;
};

}  // namespace dasched
