#include "fault/robustness.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace dasched {

Table SlackReport::to_table(const std::string& title) const {
  Table t(title);
  t.set_header({"phase_len", "big_rounds", "min_slack", "mean_slack",
                "negative_rounds"});
  t.add_row({Table::fmt(std::uint64_t{phase_len}),
             Table::fmt(static_cast<std::uint64_t>(slack.size())),
             Table::fmt(min_slack), Table::fmt(mean_slack, 2),
             Table::fmt(negative_rounds)});
  return t;
}

SlackReport analyze_slack(std::span<const std::uint32_t> max_load_per_big_round,
                          std::uint32_t phase_len, TelemetrySink* telemetry) {
  DASCHED_CHECK(phase_len >= 1);
  SlackReport report;
  report.phase_len = phase_len;
  report.slack.reserve(max_load_per_big_round.size());
  report.min_slack = phase_len;
  double total = 0.0;
  for (const auto load : max_load_per_big_round) {
    const std::int64_t s =
        static_cast<std::int64_t>(phase_len) - static_cast<std::int64_t>(load);
    report.slack.push_back(s);
    report.min_slack = std::min(report.min_slack, s);
    total += static_cast<double>(s);
    if (s < 0) ++report.negative_rounds;
    if (telemetry != nullptr) {
      telemetry->record_value("fault.slack", static_cast<double>(s));
    }
  }
  if (report.slack.empty()) report.min_slack = 0;
  report.mean_slack =
      report.slack.empty() ? 0.0 : total / static_cast<double>(report.slack.size());
  if (telemetry != nullptr) {
    telemetry->set_gauge("fault.slack.min", static_cast<double>(report.min_slack));
    telemetry->set_gauge("fault.slack.mean", report.mean_slack);
    telemetry->add_counter("fault.slack.negative_rounds", report.negative_rounds);
  }
  return report;
}

Table SurvivalCurve::to_table(const std::string& title) const {
  Table t(title);
  t.set_header({"drop_rate", "trials", "survived", "survival"});
  for (const auto& p : points) {
    t.add_row({Table::fmt(p.drop_rate, 3), Table::fmt(std::uint64_t{p.trials}),
               Table::fmt(std::uint64_t{p.survived}),
               Table::fmt(p.survival_fraction(), 2)});
  }
  return t;
}

SurvivalCurve survival_curve(
    std::span<const double> drop_rates, std::uint32_t trials,
    std::uint64_t base_seed,
    const std::function<bool(double drop_rate, std::uint64_t fault_seed)>& run_trial,
    TelemetrySink* telemetry) {
  SurvivalCurve curve;
  curve.points.reserve(drop_rates.size());
  for (std::size_t i = 0; i < drop_rates.size(); ++i) {
    SurvivalPoint point;
    point.drop_rate = drop_rates[i];
    point.trials = trials;
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const std::uint64_t fault_seed = seed_combine(base_seed, i, trial);
      if (run_trial(point.drop_rate, fault_seed)) ++point.survived;
    }
    if (telemetry != nullptr) {
      telemetry->add_counter("fault.survival.trials", point.trials);
      telemetry->add_counter("fault.survival.survived", point.survived);
      telemetry->record_value("fault.survival.fraction", point.survival_fraction());
    }
    curve.points.push_back(point);
  }
  return curve;
}

}  // namespace dasched
