#include "verify/divergence.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace dasched::verify {

namespace {

Location cell_location(const LoadCell& cell) {
  Location loc;
  loc.big_round = cell.big_round;
  loc.edge = cell.edge;
  return loc;
}

}  // namespace

Report check_divergence(std::span<const LoadCell> predicted,
                        const ExecProfiler& measured,
                        const DivergenceOptions& opts) {
  Report report;
  report.max_findings_per_code = opts.max_findings_per_code;

  const std::vector<LoadCell>& cells = measured.cells();

  std::uint64_t compared = 0;
  std::uint64_t diverged = 0;
  std::uint64_t messages_predicted = 0;
  std::uint64_t messages_measured = 0;
  std::uint64_t max_abs_delta = 0;

  // One linear merge over the two sorted surfaces; every cell present in
  // either surface is visited exactly once.
  std::size_t p = 0;
  std::size_t m = 0;
  while (p < predicted.size() || m < cells.size()) {
    const bool take_p =
        m >= cells.size() || (p < predicted.size() && predicted[p] < cells[m]);
    const bool take_m =
        p >= predicted.size() || (m < cells.size() && cells[m] < predicted[p]);
    if (take_p) {
      // Predicted but never realized: the sender transmitted nothing here.
      const LoadCell& cell = predicted[p++];
      messages_predicted += cell.load;
      ++diverged;
      max_abs_delta = std::max<std::uint64_t>(max_abs_delta, cell.load);
      std::ostringstream os;
      os << "predicted load " << cell.load
         << " never materialized (crash-stopped or truncated sender?)";
      report.add({Severity::kWarning, kCodeDivergenceUnrealized,
                  cell_location(cell), os.str(),
                  {{"predicted", static_cast<double>(cell.load)},
                   {"measured", 0.0}}});
    } else if (take_m) {
      // Measured but never predicted: bandwidth the static model missed.
      const LoadCell& cell = cells[m++];
      messages_measured += cell.load;
      ++diverged;
      max_abs_delta = std::max<std::uint64_t>(max_abs_delta, cell.load);
      std::ostringstream os;
      os << "measured load " << cell.load
         << " on a cell the static model did not predict (retransmissions?)";
      report.add({Severity::kWarning, kCodeDivergenceUnpredicted,
                  cell_location(cell), os.str(),
                  {{"predicted", 0.0},
                   {"measured", static_cast<double>(cell.load)}}});
    } else {
      // Same (big_round, edge) cell on both sides.
      const LoadCell& want = predicted[p++];
      const LoadCell& got = cells[m++];
      messages_predicted += want.load;
      messages_measured += got.load;
      ++compared;
      const std::uint64_t delta = want.load > got.load ? want.load - got.load
                                                       : got.load - want.load;
      if (delta > opts.tolerance) {
        ++diverged;
        max_abs_delta = std::max(max_abs_delta, delta);
        std::ostringstream os;
        os << "measured load " << got.load << " != predicted " << want.load
           << " (|delta| " << delta << " > tolerance " << opts.tolerance << ")";
        report.add({Severity::kWarning, kCodeDivergenceLoad,
                    cell_location(want), os.str(),
                    {{"predicted", static_cast<double>(want.load)},
                     {"measured", static_cast<double>(got.load)},
                     {"delta", static_cast<double>(delta)}}});
      }
    }
  }

  if (opts.scheduled_big_rounds > 0 &&
      measured.rounds_used() != opts.scheduled_big_rounds) {
    std::ostringstream os;
    os << "run used " << measured.rounds_used() << " big-rounds; the schedule has "
       << opts.scheduled_big_rounds << " (retry horizon extension?)";
    report.add({Severity::kWarning, kCodeDivergenceRounds, {}, os.str(),
                {{"scheduled", static_cast<double>(opts.scheduled_big_rounds)},
                 {"used", static_cast<double>(measured.rounds_used())}}});
  }

  {
    std::ostringstream os;
    os << compared << " cells joined on both surfaces, " << diverged
       << " diverged in total; " << messages_predicted << " messages predicted vs "
       << messages_measured << " measured";
    report.add({Severity::kInfo, kCodeDivergenceSummary, {}, os.str(),
                {{"cells_compared", static_cast<double>(compared)},
                 {"cells_diverged", static_cast<double>(diverged)},
                 {"messages_predicted", static_cast<double>(messages_predicted)},
                 {"messages_measured", static_cast<double>(messages_measured)},
                 {"max_abs_delta", static_cast<double>(max_abs_delta)}}});
  }

  if (opts.telemetry != nullptr) {
    opts.telemetry->add_counter("divergence.cells_compared", compared);
    opts.telemetry->add_counter("divergence.cells_diverged", diverged);
    opts.telemetry->add_counter("divergence.load",
                                report.count(kCodeDivergenceLoad));
    opts.telemetry->add_counter("divergence.unpredicted",
                                report.count(kCodeDivergenceUnpredicted));
    opts.telemetry->add_counter("divergence.unrealized",
                                report.count(kCodeDivergenceUnrealized));
    opts.telemetry->set_gauge("divergence.max_abs_delta",
                              static_cast<double>(max_abs_delta));
  }
  return report;
}

}  // namespace dasched::verify
