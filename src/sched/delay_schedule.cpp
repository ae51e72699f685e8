#include "sched/delay_schedule.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasched {

std::uint64_t LoadProfile::adaptive_rounds() const {
  std::uint64_t rounds = 0;
  for (const auto load : max_load_per_phase) rounds += std::max<std::uint32_t>(1, load);
  return rounds;
}

LoadProfile::Fixed LoadProfile::fixed(std::uint32_t phase_len) const {
  DASCHED_CHECK(phase_len >= 1);
  Fixed f{static_cast<std::uint64_t>(max_load_per_phase.size()) * phase_len, 0};
  for (const auto load : max_load_per_phase) {
    if (load > phase_len) ++f.overflowing_phases;
  }
  return f;
}

LoadProfile delay_load_profile(const ScheduleProblem& problem,
                               std::span<const std::uint32_t> delays) {
  DASCHED_CHECK(delays.size() == problem.size());
  const auto& g = problem.graph();

  std::uint32_t num_phases = 0;
  for (std::size_t a = 0; a < problem.size(); ++a) {
    const auto last = problem.solo(a).pattern.last_message_round();
    if (last > 0) num_phases = std::max(num_phases, delays[a] + last);
  }

  LoadProfile profile;
  profile.max_load_per_phase.assign(num_phases, 0);

  // Sparse per-phase counting: bucket (phase -> edges touched this phase).
  std::vector<std::vector<std::uint32_t>> phase_edges(num_phases);
  for (std::size_t a = 0; a < problem.size(); ++a) {
    const auto& pattern = problem.solo(a).pattern;
    for (std::uint32_t r = 1; r <= pattern.last_message_round(); ++r) {
      const auto edges = pattern.edges_in_round(r);
      auto& bucket = phase_edges[delays[a] + r - 1];
      bucket.insert(bucket.end(), edges.begin(), edges.end());
      profile.total_messages += edges.size();
    }
  }

  std::vector<std::uint32_t> count(g.num_directed_edges(), 0);
  for (std::uint32_t t = 0; t < num_phases; ++t) {
    std::uint32_t max_load = 0;
    for (const auto d : phase_edges[t]) {
      max_load = std::max(max_load, ++count[d]);
    }
    for (const auto d : phase_edges[t]) count[d] = 0;
    profile.max_load_per_phase[t] = max_load;
    profile.max_load = std::max(profile.max_load, max_load);
  }
  return profile;
}

}  // namespace dasched
