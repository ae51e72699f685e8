#include "lowerbound/hard_instance.hpp"

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "util/math.hpp"

namespace dasched {

namespace {

/// Node roles on the layered graph.
struct Role {
  bool is_spine = false;
  NodeId spine_index = 0;  // p in [0, L]
  NodeId group_layer = 0;  // i in [1, L] for group nodes
};

Role classify(NodeId node, NodeId layers, NodeId width) {
  Role role;
  if (node <= layers) {
    role.is_spine = true;
    role.spine_index = node;
  } else {
    role.group_layer = (node - layers - 1) / width + 1;
  }
  return role;
}

class HardInstanceProgram final : public NodeProgram {
 public:
  HardInstanceProgram(const HardInstanceAlgorithm& algo, NodeId self)
      : algo_(algo), self_(self), role_(classify(self, algo.layers(), algo.width())) {
    if (role_.is_spine) {
      if (role_.spine_index == 0) state_ = algo_.expected_spine_state(0);
      is_member_ = false;
    } else {
      const auto& s = algo_.members()[role_.group_layer - 1];
      is_member_ = std::binary_search(s.begin(), s.end(), self);
    }
  }

  void on_round(VirtualContext& ctx) override {
    const std::uint32_t r = ctx.vround();
    if (role_.is_spine) {
      const NodeId p = role_.spine_index;
      // Absorb S_p replies (sent in round 2p, arriving at round 2p+1).
      if (p >= 1 && r == 2u * p + 1) {
        state_ = 0;
        for (const auto& m : ctx.inbox()) state_ ^= m.payload.at(0);
        got_state_ = true;
      }
      // Fan out to S_{p+1} in round 2p+1.
      if (p < algo_.layers() && r == 2u * p + 1) {
        for (const NodeId u : algo_.members()[p]) ctx.send(u, {state_});
      }
      return;
    }
    // Group node in layer i: absorb the spine message at round 2i, reply.
    if (is_member_ && r == 2u * role_.group_layer) {
      DASCHED_DCHECK(ctx.inbox().size() <= 1);
      if (!ctx.inbox().empty()) {
        received_ = ctx.inbox().front().payload.at(0);
        got_state_ = true;
        ctx.send(role_.group_layer /* == id of v_i */,
                 {received_ ^ HardInstanceAlgorithm::member_mix(self_)});
      }
    }
  }

  void on_finish(VirtualContext& ctx) override {
    if (role_.is_spine && role_.spine_index == algo_.layers() && algo_.layers() >= 1) {
      state_ = 0;
      for (const auto& m : ctx.inbox()) state_ ^= m.payload.at(0);
      got_state_ = true;
    }
  }

  void write_output(std::vector<std::uint64_t>& words) const override {
    if (role_.is_spine) {
      words.insert(words.end(), {state_, got_state_ ? 1ULL : 0ULL});
    } else if (is_member_) {
      words.insert(words.end(), {received_, got_state_ ? 1ULL : 0ULL});
    }
  }

 private:
  const HardInstanceAlgorithm& algo_;
  NodeId self_;
  Role role_;
  bool is_member_ = false;
  bool got_state_ = false;
  std::uint64_t state_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace

HardInstanceAlgorithm::HardInstanceAlgorithm(NodeId layers, NodeId width,
                                             std::vector<std::vector<NodeId>> members,
                                             std::uint64_t initial_value,
                                             std::uint64_t base_seed)
    : DistributedAlgorithm(base_seed),
      layers_(layers),
      width_(width),
      members_(std::move(members)),
      initial_value_(initial_value) {
  DASCHED_CHECK(layers_ >= 1);
  DASCHED_CHECK(members_.size() == layers_);
  for (auto& s : members_) {
    DASCHED_CHECK(std::is_sorted(s.begin(), s.end()));
  }
}

std::uint64_t HardInstanceAlgorithm::expected_spine_state(NodeId p) const {
  DASCHED_CHECK(p <= layers_);
  std::uint64_t state = initial_value_;
  for (NodeId j = 1; j <= p; ++j) {
    std::uint64_t next = 0;
    for (const NodeId u : members_[j - 1]) next ^= state ^ member_mix(u);
    state = next;
  }
  return state;
}

NodeProgram& HardInstanceAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<HardInstanceProgram>(*this, node);
}

std::unique_ptr<ScheduleProblem> make_hard_instance(const Graph& g,
                                                    const HardInstanceConfig& cfg) {
  DASCHED_CHECK(g.num_nodes() == cfg.layers + 1 + cfg.layers * cfg.width);
  auto problem = std::make_unique<ScheduleProblem>(g);
  Rng rng(seed_combine(cfg.seed, 0x4A2D));
  for (std::size_t a = 0; a < cfg.algorithms; ++a) {
    std::vector<std::vector<NodeId>> members(cfg.layers);
    for (NodeId i = 1; i <= cfg.layers; ++i) {
      for (NodeId j = 0; j < cfg.width; ++j) {
        if (rng.next_bool(cfg.participation)) {
          members[i - 1].push_back(layered_group_node(cfg.layers, cfg.width, i, j));
        }
      }
    }
    problem->add(std::make_unique<HardInstanceAlgorithm>(
        cfg.layers, cfg.width, std::move(members), splitmix64(cfg.seed ^ a),
        seed_combine(cfg.seed, a, 0x11)));
  }
  return problem;
}

HardInstanceConfig scaled_hard_instance_config(std::uint64_t n_target, std::uint64_t seed) {
  HardInstanceConfig cfg;
  cfg.seed = seed;
  // Keep the proof's ratios at laptop scale: L grows slowly, width absorbs
  // the rest of the node budget, and k*q ~ 2L keeps congestion ~ dilation.
  cfg.layers = std::max<NodeId>(
      3, static_cast<NodeId>(std::lround(std::pow(static_cast<double>(n_target), 0.25))));
  cfg.width = std::max<NodeId>(8, static_cast<NodeId>(n_target / cfg.layers));
  cfg.participation = std::min(0.5, 6.0 / std::sqrt(static_cast<double>(cfg.width)));
  cfg.algorithms = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(2.0 * cfg.layers / cfg.participation)));
  return cfg;
}

}  // namespace dasched
