#include "algos/bfs.hpp"

#include <algorithm>

namespace dasched {

namespace {

class BfsProgram final : public NodeProgram {
 public:
  BfsProgram(NodeId self, bool is_source) {
    if (is_source) {
      reached_ = true;
      distance_ = 0;
      parent_ = self;
    }
  }

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    if (reached_ && !forwarded_ && ctx.vround() == distance_ + 1) {
      for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {});
      forwarded_ = true;
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    if (!reached_) {
      words.insert(words.end(), {0, ~std::uint64_t{0}, ~std::uint64_t{0}});
    } else {
      words.insert(words.end(), {1, distance_, parent_});
    }
  }

 private:
  void absorb(VirtualContext& ctx) {
    if (reached_ || ctx.inbox().empty()) return;
    reached_ = true;
    distance_ = ctx.vround() - 1;
    NodeId best = ctx.inbox().front().from;
    for (const auto& m : ctx.inbox()) best = std::min(best, m.from);
    parent_ = best;
  }

  bool reached_ = false;
  bool forwarded_ = false;
  std::uint32_t distance_ = 0;
  NodeId parent_ = kInvalidNode;
};

}  // namespace

NodeProgram& BfsAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<BfsProgram>(node, node == source_);
}

}  // namespace dasched
