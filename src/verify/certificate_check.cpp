#include "verify/certificate_check.hpp"

#include <algorithm>
#include <sstream>

#include "util/load_cells.hpp"

namespace dasched::verify {

namespace {

Location at(std::int64_t alg_index) {
  Location loc;
  loc.alg = alg_index;
  return loc;
}

}  // namespace

bool check_certificate(const analysis::PatternCertificate& cert, const SoloRunResult& solo,
                       Report& report, std::int64_t alg_index) {
  const std::uint64_t errors_before = report.errors();
  const std::uint32_t num_directed = solo.pattern.num_directed_edges();

  // --- Dimensions: everything below indexes through these. ---
  bool dims_ok = true;
  if (cert.exact() && cert.pattern.num_directed_edges() != num_directed) {
    std::ostringstream os;
    os << "certificate surface covers " << cert.pattern.num_directed_edges()
       << " directed edges; the executed pattern has " << num_directed;
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (cert.has_outputs && cert.outputs.size() != solo.outputs.size()) {
    std::ostringstream os;
    os << "certificate outputs cover " << cert.outputs.size() << " nodes; the executed run has "
       << solo.outputs.size();
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (cert.last_message_round > cert.rounds) {
    std::ostringstream os;
    os << "certificate sends in round " << cert.last_message_round
       << "; the algorithm declares " << cert.rounds << " rounds";
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (!dims_ok) return false;

  std::uint64_t cells_compared = 0;
  const auto cell_at = [&](const LoadCell& cell) {
    Location loc = at(alg_index);
    loc.vround = cell.big_round;
    loc.edge = cell.edge;
    return loc;
  };

  if (cert.exact()) {
    // Cell-for-cell equality over the union of both surfaces; a cell counts
    // once for each surface that has it.
    join_cells(cert.pattern.cells(), solo.pattern.cells(),
               [&](const LoadCell& cell, std::uint32_t certified, std::uint32_t executed) {
                 cells_compared += (certified != 0) + (executed != 0);
                 if (certified == executed) return;
                 std::ostringstream os;
                 os << "certified load " << certified << " != executed load " << executed;
                 report.add({Severity::kError, kCodeCertificateCellMismatch, cell_at(cell),
                             os.str(),
                             {{"certified", static_cast<double>(certified)},
                              {"executed", static_cast<double>(executed)}}});
               });
    if (cert.has_outputs) {
      for (NodeId v = 0; v < solo.outputs.size(); ++v) {
        if (cert.outputs[v] == solo.outputs[v]) continue;
        std::ostringstream os;
        os << "derived output (" << cert.outputs[v].size() << " words) != executed output ("
           << solo.outputs[v].size() << " words)";
        Location loc = at(alg_index);
        loc.node = static_cast<std::int64_t>(v);
        report.add({Severity::kError, kCodeCertificateOutputMismatch, loc, os.str(), {}});
      }
    }
  } else {
    // Sound bounds: the executed run must stay inside the envelope.
    const auto bound_violation = [&](const char* what, std::uint64_t executed,
                                     std::uint64_t certified, Location loc) {
      std::ostringstream os;
      os << what << " " << executed << " exceeds certified bound " << certified;
      report.add({Severity::kError, kCodeCertificateBoundViolation, loc, os.str(),
                  {{"executed", static_cast<double>(executed)},
                   {"certified", static_cast<double>(certified)}}});
    };
    if (solo.pattern.last_message_round() > cert.last_message_round) {
      bound_violation("last message round", solo.pattern.last_message_round(),
                      cert.last_message_round, at(alg_index));
    }
    if (solo.pattern.total_messages() > cert.total_messages) {
      bound_violation("total messages", solo.pattern.total_messages(), cert.total_messages,
                      at(alg_index));
    }
    for (std::uint32_t d = 0; d < num_directed; ++d) {
      ++cells_compared;
      if (solo.pattern.edge_load(d) > cert.per_edge_bound) {
        Location loc = at(alg_index);
        loc.edge = d;
        bound_violation("per-edge load", solo.pattern.edge_load(d), cert.per_edge_bound, loc);
      }
    }
    for (const LoadCell& cell : solo.pattern.cells()) {
      ++cells_compared;
      if (cell.load > cert.per_cell_bound) {
        bound_violation("cell load", cell.load, cert.per_cell_bound, cell_at(cell));
      }
    }
  }

  {
    std::ostringstream os;
    os << to_string(cert.kind) << " certificate for " << cert.algorithm << ": "
       << cells_compared << " cells checked, " << solo.pattern.total_messages()
       << " executed messages vs " << cert.total_messages << " certified";
    report.add({Severity::kInfo, kCodeCertificateSummary, at(alg_index), os.str(),
                {{"cells_compared", static_cast<double>(cells_compared)},
                 {"certified_congestion", static_cast<double>(cert.congestion)},
                 {"executed_congestion", static_cast<double>(solo.pattern.max_edge_load())}}});
  }
  return report.errors() == errors_before;
}

}  // namespace dasched::verify
