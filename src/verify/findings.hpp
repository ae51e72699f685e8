// Structured diagnostics emitted by the static schedule verifier.
//
// A Finding is one violated (or measured) invariant: a severity, a stable
// machine-readable code from the catalogue in invariants.hpp, a structured
// location inside the schedule (algorithm / node / virtual round / big-round
// / directed edge, each optional), a human-readable message, and named
// numeric metrics (the measured quantities behind the diagnosis -- loads,
// budgets, slots -- so reports stay diffable without re-parsing messages).
//
// A Report collects findings with full per-code counts. To keep pathological
// schedules from producing megabytes of diagnostics, at most
// `max_findings_per_code` findings are *recorded* per code (the rest are
// counted but dropped); `count(code)` and the severity totals always reflect
// every occurrence, so `ok()` is exact. See docs/VERIFICATION.md for the
// invariant catalogue and the JSON shape of the RunReport `findings` section.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/table.hpp"

namespace dasched {
class RunReport;
}

namespace dasched::verify {

enum class Severity { kInfo, kWarning, kError };

const char* to_string(Severity severity);

/// Where inside the schedule a finding points. Every field is optional
/// (kNone); str() renders only the set ones, in a fixed order.
struct Location {
  static constexpr std::int64_t kNone = -1;
  std::int64_t alg = kNone;
  std::int64_t node = kNone;
  std::int64_t vround = kNone;     // 1-based virtual round
  std::int64_t big_round = kNone;
  std::int64_t edge = kNone;       // directed edge id

  std::string str() const;
};

struct Finding {
  Severity severity = Severity::kError;
  std::string code;       // stable catalogue id (invariants.hpp)
  Location location;
  std::string message;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Instance-level quantities the verifier measured while checking; these are
/// the constants behind the paper's O(congestion + dilation log n) budget.
struct Measured {
  std::uint32_t congestion = 0;       // max_e sum_i c_i(e), from solo patterns
  std::uint32_t dilation = 0;         // max_i rounds(A_i)
  std::uint32_t phase_len = 0;        // physical rounds per big-round
  std::uint32_t big_rounds = 0;       // schedule length in big-rounds
  std::uint32_t max_edge_load = 0;    // static max per-edge per-big-round load
  std::uint64_t scheduled_slots = 0;  // (alg, node, vround) slots checked
  std::uint64_t checked_messages = 0; // pattern messages with a causality constraint
  std::uint64_t truncated_rows = 0;   // (alg, node) rows with a shortened prefix
  /// big_rounds * phase_len / (congestion + dilation * ceil(log2 n)):
  /// the measured constant of Theorem 1.1's round bound.
  double length_ratio = 0.0;
};

class Report {
 public:
  /// Records `finding` (subject to the per-code cap) and counts it (always).
  void add(Finding finding);

  const std::vector<Finding>& findings() const { return findings_; }

  std::uint64_t errors() const { return errors_; }
  std::uint64_t warnings() const { return warnings_; }
  std::uint64_t infos() const { return infos_; }
  /// No error-severity findings: the schedule is admissible.
  bool ok() const { return errors_ == 0; }

  /// Total occurrences of `code`, including ones dropped by the cap.
  std::uint64_t count(std::string_view code) const;
  bool has(std::string_view code) const { return count(code) > 0; }

  /// Recorded-findings cap per code; set before the verifier fills the report.
  std::size_t max_findings_per_code = 16;

  Measured measured;

  /// One row per recorded finding: severity | code | location | message.
  Table to_table(const std::string& title) const;

  /// Appends every recorded finding (and the exact severity totals) to the
  /// report's `findings` section (telemetry/run_report.hpp).
  void to_run_report(RunReport& report, std::string_view location_prefix = "") const;

 private:
  std::vector<Finding> findings_;
  std::map<std::string, std::uint64_t, std::less<>> counts_by_code_;
  std::uint64_t errors_ = 0;
  std::uint64_t warnings_ = 0;
  std::uint64_t infos_ = 0;
};

}  // namespace dasched::verify
