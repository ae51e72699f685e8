// The flood workload of the engine benches (E13, E14, E15) and the result
// comparison they and E11 gate on.
//
// Every scheduled event sends (self, vround, running-xor) to each neighbor
// and folds its inbox into a scalar, so on_round never allocates and every
// cost a bench measures is the engine's, not the workload's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "congest/executor.hpp"
#include "graph/generators.hpp"

#if defined(__unix__)
#include <sys/resource.h>
#endif

namespace dasched::bench {

/// Floods (self, vround, running-xor) to every neighbor each round and folds
/// the inbox into the running xor. on_round performs no heap allocation: the
/// payload is inline and the accumulator is a scalar.
class FloodProgram final : public NodeProgram {
 public:
  explicit FloodProgram(NodeId self) : self_(self) {}

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    const Payload p{std::uint64_t{self_}, std::uint64_t{ctx.vround()}, acc_};
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, p);
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.push_back(acc_);
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      for (const auto w : m.payload) acc_ ^= w + 0x9e3779b97f4a7c15ull + m.from;
    }
  }

  NodeId self_;
  std::uint64_t acc_ = 0;
};

class FloodAlgorithm final : public DistributedAlgorithm {
 public:
  FloodAlgorithm(std::uint32_t rounds, std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), rounds_(rounds) {}

  std::string name() const override { return "flood"; }
  /// The flood payload is exactly {self, vround, acc}: three words. The
  /// declared width lets the executor run 3-word compact lanes instead of
  /// budget-wide ones.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 3;
    return f;
  }
  std::uint32_t rounds() const override { return rounds_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override {
    return arena.make<FloodProgram>(node);
  }

 private:
  std::uint32_t rounds_;
};

struct FloodWorkload {
  std::unique_ptr<Graph> graph;
  std::vector<std::unique_ptr<FloodAlgorithm>> owned;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
  std::uint64_t messages_per_run = 0;
};

/// k flood instances staggered one big-round apart (delay a for algorithm a)
/// on a connected G(n, deg/n): every scheduled event sends deg(v) inline
/// messages, total message volume k * T * 2|E| per run.
inline FloodWorkload make_flood_workload(NodeId n, std::size_t k, std::uint32_t rounds,
                                         double deg, std::uint64_t seed) {
  Rng rng(seed);
  FloodWorkload w;
  w.graph = std::make_unique<Graph>(make_gnp_connected(n, deg / n, rng));
  std::vector<std::uint32_t> delays;
  for (std::size_t a = 0; a < k; ++a) {
    w.owned.push_back(std::make_unique<FloodAlgorithm>(rounds, seed + a));
    w.algos.push_back(w.owned.back().get());
    delays.push_back(static_cast<std::uint32_t>(a));
  }
  w.schedule = ScheduleTable::from_delays(w.algos, n, delays);
  w.messages_per_run = std::uint64_t{k} * rounds * w.graph->num_directed_edges();
  return w;
}

/// Outputs, completion, violation counts, message totals and loads all equal.
inline bool identical(const ExecutionResult& a, const ExecutionResult& b) {
  return a.outputs == b.outputs && a.completed == b.completed &&
         a.causality_violations == b.causality_violations &&
         a.total_messages == b.total_messages &&
         a.num_big_rounds == b.num_big_rounds &&
         a.max_load_per_big_round == b.max_load_per_big_round &&
         a.max_edge_load == b.max_edge_load;
}

/// Process peak RSS in MiB (0 where unsupported). A high-water mark: never
/// decreases, so a reading bounds everything run so far.
inline double peak_rss_mib() {
#if defined(__unix__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return 0.0;
#endif
}

}  // namespace dasched::bench
