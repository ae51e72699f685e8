#include "sched/moser_tardos.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/load_cells.hpp"

namespace dasched {

MoserTardosOutcome MoserTardosScheduler::run(ScheduleProblem& problem) const {
  problem.run_solo();
  const std::size_t k = problem.size();

  MoserTardosOutcome out;
  out.frame = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::ceil(cfg_.frame_factor * problem.congestion())));

  // Flatten messages: (algorithm, round, directed edge).
  struct Msg {
    std::uint32_t alg;
    std::uint32_t round;
    std::uint32_t dedge;
  };
  std::vector<Msg> messages;
  for (std::size_t a = 0; a < k; ++a) {
    for (const LoadCell& cell : problem.solo(a).pattern.cells()) {
      messages.insert(messages.end(), cell.load,
                      {static_cast<std::uint32_t>(a), cell.big_round, cell.edge});
    }
  }

  Rng rng(cfg_.seed);
  out.delays.resize(k);
  for (auto& d : out.delays) d = static_cast<std::uint32_t>(rng.next_below(out.frame));

  const auto cell_of = [&](const Msg& m) {
    return cell_key(out.delays[m.alg] + m.round - 1, m.dedge);
  };
  std::vector<std::uint64_t> keys;
  std::vector<LoadCell> cells;
  for (out.resample_iterations = 0; out.resample_iterations < cfg_.max_iterations;
       ++out.resample_iterations) {
    // Count loads; the first overloaded cell in (round, edge) order is the
    // event, so the run is deterministic per seed.
    keys.clear();
    for (const auto& m : messages) keys.push_back(cell_of(m));
    count_cells(keys, cells);
    const auto event = std::find_if(cells.begin(), cells.end(), [&](const LoadCell& c) {
      return c.load > 1;  // one message per (round, directed edge)
    });
    if (event == cells.end()) {
      out.converged = true;
      break;
    }
    const std::uint64_t violated = cell_key(event->big_round, event->edge);
    // Moser-Tardos: resample every algorithm participating in the event.
    // (Collect first, then resample -- computing cells with mutated delays
    // would misidentify participants.)
    std::vector<std::uint8_t> in_event(k, 0);
    for (const auto& m : messages) {
      if (cell_of(m) == violated) in_event[m.alg] = 1;
    }
    for (std::size_t a = 0; a < k; ++a) {
      if (in_event[a]) {
        out.delays[a] = static_cast<std::uint32_t>(rng.next_below(out.frame));
      }
    }
  }

  if (!out.converged) return out;

  // Realize the schedule: unit-length phases, unit capacity enforced.
  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  Executor executor(problem.graph(), cfg);
  const auto algos = problem.algorithm_ptrs();
  out.exec = executor.run(
      algos,
      ScheduleTable::from_delays(algos, problem.graph().num_nodes(), out.delays));
  out.schedule_rounds = out.exec.num_big_rounds;
  return out;
}

}  // namespace dasched
