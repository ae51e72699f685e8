#include "algos/mis.hpp"

#include <algorithm>

namespace dasched {

namespace {

constexpr std::uint64_t kTagPriority = 1;
constexpr std::uint64_t kTagJoin = 2;

class LubyMisProgram final : public NodeProgram {
 public:
  LubyMisProgram(NodeId self, std::uint64_t seed, bool seeded, Rng rng)
      : self_(self), seed_(seed), seeded_(seeded), rng_(rng) {}

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    if (decided_) return;
    const std::uint32_t r = ctx.vround();
    if (r % 2 == 1) {
      // Round A of phase (r-1)/2: draw and announce the priority.
      const std::uint32_t phase = (r - 1) / 2;
      priority_ = seeded_ ? splitmix64(seed_combine(seed_, phase, self_)) : rng_();
      beaten_ = false;
      for (const auto& nb : ctx.neighbors()) {
        ctx.send(nb.neighbor, {kTagPriority, priority_});
      }
    } else {
      // Round B: the local maximum joins (absorb() above recorded whether any
      // active neighbor beat us).
      if (!beaten_) {
        decided_ = true;
        in_mis_ = true;
        for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, {kTagJoin});
      }
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(), {decided_ ? 1ULL : 0ULL, in_mis_ ? 1ULL : 0ULL});
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      if (m.payload.at(0) == kTagJoin) {
        if (!decided_) decided_ = true;  // a neighbor joined; we are covered
      } else if (!decided_) {
        // Priority comparison with id tie-break (distinct by construction).
        const std::uint64_t p = m.payload.at(1);
        if (p > priority_ || (p == priority_ && m.from > self_)) beaten_ = true;
      }
    }
  }

  NodeId self_;
  std::uint64_t seed_;
  bool seeded_;
  Rng rng_;  // private priorities when unseeded
  bool decided_ = false;
  bool in_mis_ = false;
  bool beaten_ = false;
  std::uint64_t priority_ = 0;
};

}  // namespace

NodeProgram& LubyMisAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  if (node_seeds_.empty()) {
    return arena.make<LubyMisProgram>(node, 0, false, node_rng(base_seed(), node));
  }
  DASCHED_CHECK(node_seeds_.size() > node);
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (const auto w : node_seeds_[node]) seed = seed_combine(seed, w);
  return arena.make<LubyMisProgram>(node, seed, true, Rng());
}

std::pair<std::uint64_t, std::uint64_t> check_mis(const Graph& g,
                                                  const std::vector<std::uint8_t>& decided,
                                                  const std::vector<std::uint8_t>& in_mis) {
  std::uint64_t independence = 0;
  std::uint64_t maximality = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [a, b] = g.endpoints(e);
    if (in_mis[a] && in_mis[b]) ++independence;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!decided[v] || in_mis[v]) continue;
    bool covered = false;
    for (const auto& nb : g.neighbors(v)) covered |= (in_mis[nb.neighbor] != 0);
    if (!covered) ++maximality;
  }
  return {independence, maximality};
}

}  // namespace dasched
