#include "algos/gossip.hpp"

namespace dasched {

namespace {

class GossipProgram final : public NodeProgram {
 public:
  GossipProgram(bool is_source, std::uint64_t rumor, Rng rng) : rng_(rng) {
    if (is_source) {
      informed_ = true;
      rumor_ = rumor;
      informed_round_ = 0;
    }
  }

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    if (informed_ && ctx.degree() > 0) {
      const auto pick = rng_.next_below(ctx.degree());
      ctx.send(ctx.neighbors()[pick].neighbor, {rumor_});
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(), {informed_ ? 1ULL : 0ULL, rumor_,
                               informed_ ? std::uint64_t{informed_round_} : ~std::uint64_t{0}});
  }

 private:
  void absorb(VirtualContext& ctx) {
    if (informed_ || ctx.inbox().empty()) return;
    informed_ = true;
    rumor_ = ctx.inbox().front().payload.at(0);
    informed_round_ = ctx.vround() - 1;
  }

  Rng rng_;
  bool informed_ = false;
  std::uint64_t rumor_ = 0;
  std::uint32_t informed_round_ = 0;
};

}  // namespace

NodeProgram& GossipAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<GossipProgram>(node == source_, rumor_, node_rng(base_seed(), node));
}

}  // namespace dasched
