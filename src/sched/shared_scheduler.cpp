#include "sched/shared_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "rand/distributions.hpp"
#include "rand/kwise.hpp"
#include "util/math.hpp"

namespace dasched {

std::vector<std::uint32_t> SharedRandomnessScheduler::draw_delays(
    std::uint64_t shared_seed, std::size_t num_algorithms, std::uint32_t delay_range,
    std::uint32_t independence) {
  DASCHED_CHECK(delay_range >= 1);
  DASCHED_CHECK(independence >= 1);
  // Field large enough that unit_value discretization cannot bias delays:
  // prime >= max(2^20, 4 * range).
  const std::uint64_t prime =
      next_prime(std::max<std::uint64_t>(1u << 20, 4ULL * delay_range));
  Rng seed_rng(shared_seed);
  const KWiseFamily family(prime, independence, seed_rng);
  const UniformDelay dist(delay_range);
  std::vector<std::uint32_t> delays;
  delays.reserve(num_algorithms);
  for (std::size_t a = 0; a < num_algorithms; ++a) {
    delays.push_back(dist.delay_from_unit(family.unit_value(a)));
  }
  return delays;
}

SharedScheduleOutcome SharedRandomnessScheduler::run(ScheduleProblem& problem) const {
  TimedSpan run_span(cfg_.telemetry, "sched.shared", "run");
  problem.run_solo();
  const NodeId n = problem.graph().num_nodes();
  const std::uint32_t log_n = default_phase_len(n);

  SharedScheduleOutcome out;
  out.phase_len = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(cfg_.phase_factor * log_n)));
  const std::uint32_t congestion =
      cfg_.congestion_estimate > 0 ? cfg_.congestion_estimate : problem.congestion();
  // Delays are uniform over ceil(congestion / phase_len) phases.
  out.delay_range = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::ceil(static_cast<double>(congestion) / out.phase_len)));
  // Theta(log n)-wise independent delays.
  const std::uint32_t independence = std::max<std::uint32_t>(2, log_n);

  out.delays = draw_delays(cfg_.shared_seed, problem.size(), out.delay_range, independence);

  if (cfg_.telemetry != nullptr) {
    cfg_.telemetry->set_gauge("sched.shared.phase_len", out.phase_len);
    cfg_.telemetry->set_gauge("sched.shared.delay_range", out.delay_range);
    cfg_.telemetry->set_gauge("sched.shared.congestion", congestion);
    cfg_.telemetry->set_gauge("sched.shared.independence", independence);
    for (const auto d : out.delays) {
      cfg_.telemetry->record_value("sched.shared.delay", d);
    }
  }

  ExecConfig ecfg;
  ecfg.telemetry = cfg_.telemetry;
  ecfg.profiler = cfg_.profiler;
  ecfg.num_threads = cfg_.num_threads;
  Executor executor(problem.graph(), ecfg);
  const auto algos = problem.algorithm_ptrs();
  out.schedule =
      ScheduleTable::from_delays(algos, problem.graph().num_nodes(), out.delays);
  {
    TimedSpan exec_span(cfg_.telemetry, "sched.shared", "execute");
    out.exec = executor.run(algos, out.schedule);
  }

  out.schedule_rounds = out.exec.adaptive_physical_rounds();
  out.fixed = out.exec.fixed_phase(out.phase_len);
  if (cfg_.telemetry != nullptr) {
    cfg_.telemetry->add_counter("sched.shared.fixed_phase_overflows",
                                out.fixed.overflowing_phases);
    cfg_.telemetry->set_gauge("sched.shared.schedule_rounds",
                              static_cast<double>(out.schedule_rounds));
    run_span.arg("schedule_rounds", static_cast<double>(out.schedule_rounds));
    run_span.arg("phase_len", out.phase_len);
    run_span.arg("delay_range", out.delay_range);
  }
  return out;
}

}  // namespace dasched
