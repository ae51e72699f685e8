#include "sched/global_sharing.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "util/math.hpp"

namespace dasched {

namespace {

constexpr std::uint64_t kTagMinId = 1;
constexpr std::uint64_t kTagWord = 2;

/// Leader election (min-id flood) + pipelined seed broadcast.
///
/// Rounds 1..D+1:        min-id flood (send on improvement).
/// Rounds D+2..2D+s+3:   the leader (the node whose id survived) floods its
///                       s seed words, pipelined one per round per node.
/// The diameter bound D is an input -- the standard assumption for the naive
/// approach (and exactly why it costs Omega(diameter)).
class MinIdSeedBroadcast final : public DistributedAlgorithm {
 public:
  MinIdSeedBroadcast(std::uint32_t diameter_bound, std::uint32_t words,
                     std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), diameter_(diameter_bound), words_(words) {}

  std::string name() const override { return "min-id-seed-broadcast"; }
  /// Widest message is the pipelined word {tag, index, word}: three words.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 3;
    return f;
  }
  std::uint32_t rounds() const override { return 2 * diameter_ + words_ + 3; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;

  std::uint32_t diameter() const { return diameter_; }
  std::uint32_t words() const { return words_; }

 private:
  std::uint32_t diameter_;
  std::uint32_t words_;
};

class MinIdSeedProgram final : public NodeProgram {
 public:
  MinIdSeedProgram(const MinIdSeedBroadcast& algo, NodeId self)
      : algo_(algo), self_(self), best_(self) {}

  void on_round(VirtualContext& ctx) override {
    const std::uint32_t flood_end = algo_.diameter() + 1;
    absorb(ctx);
    if (ctx.vround() <= flood_end) {
      if (best_ != last_sent_) {
        last_sent_ = best_;
        for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, {kTagMinId, best_});
      }
      return;
    }
    if (ctx.vround() == flood_end + 1 && best_ == self_) {
      // This node won the election; draw the seed words privately.
      Rng rng = node_rng(algo_.base_seed(), self_);
      for (std::uint32_t j = 0; j < algo_.words(); ++j) enqueue_word(j, rng());
    }
    // Pipelined word flood: one new word per round to all neighbors.
    if (!queue_.empty()) {
      const auto [j, word] = queue_.front();
      queue_.pop_front();
      for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, {kTagWord, j, word});
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(), {words_.size() == algo_.words() ? 1ULL : 0ULL, best_});
    for (std::uint32_t j = 0; j < algo_.words(); ++j) {
      const auto it = words_.find(j);
      words.push_back(it == words_.end() ? 0 : it->second);
    }
  }

 private:
  void enqueue_word(std::uint32_t j, std::uint64_t word) {
    if (words_.emplace(j, word).second) queue_.emplace_back(j, word);
  }

  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      if (m.payload.at(0) == kTagMinId) {
        best_ = std::min(best_, m.payload.at(1));
      } else {
        enqueue_word(static_cast<std::uint32_t>(m.payload.at(1)), m.payload.at(2));
      }
    }
  }

  const MinIdSeedBroadcast& algo_;
  NodeId self_;
  std::uint64_t best_;
  std::uint64_t last_sent_ = ~std::uint64_t{0};
  std::map<std::uint32_t, std::uint64_t> words_;
  std::deque<std::pair<std::uint32_t, std::uint64_t>> queue_;
};

NodeProgram& MinIdSeedBroadcast::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<MinIdSeedProgram>(*this, node);
}

}  // namespace

GlobalSharingOutcome GlobalSharingScheduler::run(ScheduleProblem& problem) const {
  problem.run_solo();
  const auto& g = problem.graph();
  const std::uint32_t diameter = exact_diameter(g);
  // Theta(log n) seed words.
  const auto words = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(log_ceil_ln(g.num_nodes())));

  GlobalSharingOutcome out;
  MinIdSeedBroadcast protocol(std::max(1u, diameter), words, cfg_.seed);
  const auto outputs = solo_outputs(g, protocol);
  out.precomputation_rounds = protocol.rounds();

  // Every node folds the received words into the shared scheduler seed; if
  // the protocol is correct they all agree.
  out.sharing_complete = true;
  std::uint64_t folded = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (outputs[v][0] != 1) out.sharing_complete = false;
    std::uint64_t f = 0x9e3779b97f4a7c15ULL;
    for (std::size_t j = 2; j < outputs[v].size(); ++j) {
      f = seed_combine(f, outputs[v][j]);
    }
    if (v == 0) {
      folded = f;
    } else if (f != folded) {
      out.sharing_complete = false;
    }
  }

  out.shared_seed = folded;
  SharedSchedulerConfig scfg = cfg_.scheduler;
  scfg.shared_seed = folded;
  out.schedule = SharedRandomnessScheduler(scfg).run(problem);
  return out;
}

}  // namespace dasched
