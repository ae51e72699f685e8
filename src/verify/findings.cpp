#include "verify/findings.hpp"

#include <sstream>

#include "telemetry/run_report.hpp"

namespace dasched::verify {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Location::str() const {
  std::ostringstream os;
  const char* sep = "";
  auto field = [&](const char* name, std::int64_t v) {
    if (v == kNone) return;
    os << sep << name << '=' << v;
    sep = " ";
  };
  field("alg", alg);
  field("node", node);
  field("vround", vround);
  field("big_round", big_round);
  field("edge", edge);
  return os.str();
}

void Report::add(Finding finding) {
  switch (finding.severity) {
    case Severity::kError:
      ++errors_;
      break;
    case Severity::kWarning:
      ++warnings_;
      break;
    case Severity::kInfo:
      ++infos_;
      break;
  }
  const auto total = ++counts_by_code_[finding.code];
  if (total <= max_findings_per_code) {
    findings_.push_back(std::move(finding));
  }
}

std::uint64_t Report::count(std::string_view code) const {
  const auto it = counts_by_code_.find(code);
  return it == counts_by_code_.end() ? 0 : it->second;
}

Table Report::to_table(const std::string& title) const {
  Table table(title);
  table.set_header({"severity", "code", "location", "message"});
  for (const auto& f : findings_) {
    table.add_row({to_string(f.severity), f.code, f.location.str(), f.message});
  }
  return table;
}

void Report::to_run_report(RunReport& report, std::string_view location_prefix) const {
  for (const auto& f : findings_) {
    RunReport::FindingRecord rec;
    rec.severity = to_string(f.severity);
    rec.code = f.code;
    rec.location = f.location.str();
    if (!location_prefix.empty()) {
      rec.location = std::string(location_prefix) +
                     (rec.location.empty() ? "" : " ") + rec.location;
    }
    rec.message = f.message;
    rec.metrics = f.metrics;
    report.add_finding(std::move(rec));
  }
  // Totals are exact even when the per-code cap dropped recorded findings.
  report.add_finding_totals(errors_, warnings_, infos_);
}

}  // namespace dasched::verify
