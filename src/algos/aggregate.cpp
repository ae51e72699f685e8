#include "algos/aggregate.hpp"

#include <algorithm>

namespace dasched {

namespace {

constexpr std::uint64_t kTagToken = 1;   // BFS flood
constexpr std::uint64_t kTagUp = 2;      // convergecast
constexpr std::uint64_t kTagResult = 3;  // result flood

class AggregateProgram final : public NodeProgram {
 public:
  AggregateProgram(bool is_root, std::uint32_t radius, std::uint64_t value)
      : radius_(radius), subtree_sum_(value) {
    if (is_root) {
      reached_ = true;
      distance_ = 0;
    }
  }

  void on_round(VirtualContext& ctx) override {
    absorb(ctx);
    const std::uint32_t r = ctx.vround();

    // Phase 1: flood the BFS token.
    if (reached_ && !forwarded_token_ && r == distance_ + 1 && r <= radius_) {
      for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {kTagToken});
      forwarded_token_ = true;
    }

    // Phase 2: timed convergecast -- depth q reports in round 2h+1-q.
    if (reached_ && distance_ > 0 && r == 2 * radius_ + 1 - distance_) {
      ctx.send(parent_, {kTagUp, subtree_sum_});
    }

    // Phase 3: result flood, same shape as phase 1 shifted by 2h+1.
    if (have_result_ && !forwarded_result_ && r == 2 * radius_ + 1 + distance_ + 1) {
      for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {kTagResult, global_sum_});
      forwarded_result_ = true;
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    words.insert(words.end(),
                 {reached_ ? 1ULL : 0ULL, reached_ ? std::uint64_t{distance_} : ~std::uint64_t{0},
                  subtree_sum_, have_result_ ? global_sum_ : 0ULL});
  }

 private:
  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      switch (m.payload.at(0)) {
        case kTagToken:
          if (!reached_) {
            reached_ = true;
            distance_ = ctx.vround() - 1;
            parent_ = std::min(parent_, m.from);
          } else if (ctx.vround() - 1 == distance_) {
            // Same-round duplicate: keep the deterministic min-id parent.
            parent_ = std::min(parent_, m.from);
          }
          break;
        case kTagUp:
          subtree_sum_ += m.payload.at(1);
          break;
        case kTagResult:
          if (!have_result_) {
            have_result_ = true;
            global_sum_ = m.payload.at(1);
          }
          break;
        default:
          DASCHED_CHECK_MSG(false, "aggregate: unknown message tag");
      }
    }
    // The root learns the global sum once all depth-1 reports are in: they are
    // sent in round 2h and absorbed at round 2h+1.
    if (reached_ && distance_ == 0 && !have_result_ && ctx.vround() == 2 * radius_ + 1) {
      have_result_ = true;
      global_sum_ = subtree_sum_;
    }
  }

  std::uint32_t radius_;
  bool reached_ = false;
  bool forwarded_token_ = false;
  bool have_result_ = false;
  bool forwarded_result_ = false;
  std::uint32_t distance_ = 0;
  NodeId parent_ = kInvalidNode;
  std::uint64_t subtree_sum_;
  std::uint64_t global_sum_ = 0;
};

}  // namespace

NodeProgram& AggregateAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<AggregateProgram>(node == root_, radius_, local_value(node));
}

}  // namespace dasched
