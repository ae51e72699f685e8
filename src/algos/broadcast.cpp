#include "algos/broadcast.hpp"

namespace dasched {

namespace {

class BroadcastProgram final : public NodeProgram {
 public:
  BroadcastProgram(bool is_source, std::uint64_t value) : is_source_(is_source) {
    if (is_source_) {
      received_ = true;
      value_ = value;
      distance_ = 0;
    }
  }

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    // Forward exactly once, in the round after first receipt (round 1 for the
    // source).
    if (received_ && !forwarded_ && ctx.vround() == distance_ + 1) {
      for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {value_});
      forwarded_ = true;
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(), {received_ ? 1ULL : 0ULL, value_,
                               received_ ? std::uint64_t{distance_} : ~std::uint64_t{0}});
  }

 private:
  void absorb(VirtualContext& ctx) {
    if (received_) return;
    if (!ctx.inbox().empty()) {
      received_ = true;
      value_ = ctx.inbox().front().payload.at(0);
      distance_ = ctx.vround() - 1;  // sent in round vround-1 == sender hop count
    }
  }

  bool is_source_;
  bool received_ = false;
  bool forwarded_ = false;
  std::uint64_t value_ = 0;
  std::uint32_t distance_ = 0;
};

}  // namespace

NodeProgram& BroadcastAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<BroadcastProgram>(node == source_, value_);
}

}  // namespace dasched
