#include "sched/delay_schedule.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/load_cells.hpp"

namespace dasched {

LoadProfile delay_load_profile(const ScheduleProblem& problem,
                               std::span<const std::uint32_t> delays) {
  DASCHED_CHECK(delays.size() == problem.size());
  std::vector<std::uint64_t> keys;
  for (std::size_t a = 0; a < problem.size(); ++a) {
    for (const LoadCell& cell : problem.solo(a).pattern.cells()) {
      keys.insert(keys.end(), cell.load, cell_key(delays[a] + cell.big_round - 1, cell.edge));
    }
  }
  LoadProfile profile;
  profile.total_messages = keys.size();
  std::vector<LoadCell> cells;
  count_cells(keys, cells);
  profile.max_load_per_phase = round_max_loads(cells);
  for (const auto load : profile.max_load_per_phase) {
    profile.max_load = std::max(profile.max_load, load);
  }
  return profile;
}

}  // namespace dasched
