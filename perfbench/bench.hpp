// Shared plumbing of the perfbench binary: options, the span/counter
// recorder, and the raw report the binary prints for run.py.
//
// The binary only measures. Everything derived from the measurements --
// quartiles, nearest-rank percentiles, self times, fail_frac, the metric
// names and units -- is computed by run.py, so the benchmark's arithmetic
// lives in one place and is unit-tested there (test_run.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/schedule_table.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace written at exit in trace mode (empty: none).
  std::string trace_out;
  /// Executor workers of the threaded runs: the machine's core count.
  std::uint32_t workers = 1;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Derives an independent input seed for one purpose from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Raw measurements of one run. `samples` are repeated timings (run.py
/// takes minima or medians), `values` are totals and exact counts.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, bool> checks;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<std::uint64_t> latency_ticks;

  void sample(const std::string& key, double v) { samples[key].push_back(v); }
  void check(const std::string& name, bool ok) {
    auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
  }
};

/// Records spans and counters while `on`: the benchmark's own spans around
/// each public call, and -- attached as the program's TelemetrySink -- the
/// spans the library already emits. Spans carry the current `id` (problem,
/// stream or run index). Parents are derived from interval nesting in
/// run.py, which is exact because every span is timed with one clock.
class Recorder final : public dasched::TelemetrySink {
 public:
  struct Span {
    std::string category;
    std::string name;
    std::uint64_t start_us;
    std::uint64_t dur_us;
    std::uint64_t id;
  };

  bool on = false;
  std::uint64_t id = 0;

  void add_counter(std::string_view name, std::uint64_t delta) override {
    if (on) counters_[std::string(name)] += delta;
  }
  void set_gauge(std::string_view, double) override {}
  void record_value(std::string_view, double) override {}
  void record_span(std::string_view category, std::string_view name,
                   std::uint64_t start_us, std::uint64_t dur_us,
                   std::span<const dasched::SpanArg>) override {
    if (on) spans_.push_back({std::string(category), std::string(name), start_us, dur_us, id});
  }

  /// A benchmark span from two now_ns() readings.
  void span(std::string_view category, std::string_view name, std::uint64_t t0_ns,
            std::uint64_t t1_ns) {
    if (on) record_span(category, name, t0_ns / 1000, t1_ns / 1000 - t0_ns / 1000, {});
  }

  /// The traced wall time is the sum of the windows opened with tracing on.
  void open_window() {
    on = true;
    window_start_us_ = now_ns() / 1000;
  }
  void close_window() {
    window_us_ += now_ns() / 1000 - window_start_us_;
    on = false;
  }

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t window_us() const { return window_us_; }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::vector<Span> spans_;
  std::uint64_t window_start_us_ = 0;
  std::uint64_t window_us_ = 0;
};

/// Times `f`, records a span for it, and returns its duration in seconds.
template <typename F>
double timed(Recorder& rec, std::string_view category, std::string_view name, F&& f) {
  const std::uint64_t t0 = now_ns();
  f();
  const std::uint64_t t1 = now_ns();
  rec.span(category, name, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Process peak RSS in MiB (getrusage high-water mark).
double peak_rss_mib();

/// (alg, node, round) slots `t` schedules: the events a run executes.
std::uint64_t scheduled_events(const dasched::ScheduleTable& t);

/// Deadline helper for the timed loops: `done()` once `seconds` have passed
/// since construction and at least `min_iters` iterations were counted.
class Budget {
 public:
  Budget(double seconds, std::uint64_t min_iters)
      : start_ns_(now_ns()),
        end_ns_(start_ns_ + static_cast<std::uint64_t>(seconds * 1e9)),
        min_iters_(min_iters) {}
  bool done() const { return iters_ >= min_iters_ && now_ns() >= end_ns_; }
  void tick() { ++iters_; }
  /// Share of the deadline already spent, in [0, 1].
  double elapsed_frac() const {
    const std::uint64_t t = now_ns();
    if (t >= end_ns_) return 1.0;
    return static_cast<double>(t - start_ns_) / static_cast<double>(end_ns_ - start_ns_);
  }

 private:
  std::uint64_t start_ns_;
  std::uint64_t end_ns_;
  std::uint64_t min_iters_;
  std::uint64_t iters_ = 0;
};

/// Set-up repetitions per run. The host's speed changes over seconds, so the
/// repetitions are spread evenly over the measured loop (each rebuilds the
/// measured instance from the seed) rather than run back to back; run.py
/// reports the fastest, as for the measured operations.
constexpr int kSetupReps = 12;

/// True when set-up repetition `done_reps` (of kSetupReps) is due: rep i
/// runs once a share i / kSetupReps of `budget` is spent.
inline bool setup_due(const Budget& budget, int done_reps) {
  return done_reps < kSetupReps &&
         budget.elapsed_frac() >= static_cast<double>(done_reps) / kSetupReps;
}

void run_flood_large(const Options& opt, Recorder& rec, Report& out);
void run_flood_faulty(const Options& opt, Recorder& rec, Report& out);
void run_das_batch(const Options& opt, Recorder& rec, Report& out);
void run_service_stream(const Options& opt, Recorder& rec, Report& out);

}  // namespace perfbench
