#include "sched/rand_sharing.hpp"

#include <algorithm>
#include <functional>

#include "congest/simulator.hpp"
#include "util/math.hpp"

namespace dasched {

bool SharedSeeds::all_complete() const {
  for (const auto& layer : layers) {
    for (const auto c : layer.complete) {
      if (!c) return false;
    }
  }
  return true;
}

std::uint32_t RandomnessSharing::resolved_words(NodeId n) const {
  if (cfg_.words_per_seed > 0) return cfg_.words_per_seed;
  return std::max<std::uint32_t>(2, static_cast<std::uint32_t>(log_ceil_ln(n)));
}

namespace {

/// Key of one token: (label, sub-label) is the forwarding priority; the held
/// hop-count plays two separate roles, exactly as in Lemma 4.2's flood:
/// *ripeness* (a token with hop-count h moves no earlier than round h+1 --
/// the paper's "the message with hop-count i" synchronization) and *budget*
/// (a token never travels more than H hop-units, fake initial hops included,
/// so it reaches exactly its center's ball). Queueing delay does not consume
/// budget; Lenzen's pipelining bounds the delay by the token's rank.
struct TokenKey {
  std::uint64_t label;
  std::uint32_t sub;

  auto operator<=>(const TokenKey&) const = default;
};

class SharingLayerAlgorithm final : public DistributedAlgorithm {
 public:
  SharingLayerAlgorithm(std::uint64_t base_seed, TruncatedExponentialRadius dist,
                        std::uint32_t hop_cap, std::uint32_t words,
                        std::uint32_t slack)
      : DistributedAlgorithm(base_seed),
        dist_(dist),
        hop_cap_(hop_cap),
        words_(words),
        slack_(slack) {}

  std::string name() const override { return "rand-sharing-layer"; }
  /// Pattern is data/seed-driven (opaque), but every token message is the
  /// fixed record {label, sub, word, hop}: four words.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 4;
    return f;
  }
  std::uint32_t rounds() const override {
    // H + Theta(s): the pipelining delay of a token is bounded by the number
    // of smaller-keyed tokens it meets, empirically < 2s across topologies;
    // 3s is a safe constant and keeps the budget O(dilation log n).
    return hop_cap_ + 3 * words_ + slack_;
  }
  std::unique_ptr<NodeProgram> make_program(NodeId node) const override;

  const TruncatedExponentialRadius& dist() const { return dist_; }
  std::uint32_t hop_cap() const { return hop_cap_; }
  std::uint32_t words() const { return words_; }

 private:
  TruncatedExponentialRadius dist_;
  std::uint32_t hop_cap_;
  std::uint32_t words_;
  std::uint32_t slack_;
};

/// One node of a sharing layer. State is a flat token table: every label the
/// node has heard owns a block of s consecutive slots (slot = base + sub), a
/// sorted (label, base) index finds a block in O(log L) for L labels, and a
/// min-heap keyed by (label, sub) holds exactly the tokens that are sendable
/// and ripe, each at most once. A message costs O(log L + log P) for P held
/// tokens, and the forwarding choice is a heap pop instead of a scan.
class SharingLayerProgram final : public NodeProgram {
 public:
  explicit SharingLayerProgram(const SharingLayerAlgorithm& algo) : algo_(algo) {}

  void on_round(VirtualContext& ctx) override {
    if (ctx.vround() == 1) init(ctx);
    // Own tokens carry the fake hop-count H - r(u), so they ripen together
    // at round H - r(u) + 1; every other token is ripe on arrival (absorb).
    if (ctx.vround() == own_ripe_round_) {
      for (std::uint32_t j = 0; j < algo_.words(); ++j) mark_ready(own_base_ + j);
    }
    absorb(ctx);
    // Forward the smallest (label, sub) token that is ripe (hop <= round-1),
    // has hop budget left, and has not been sent at this (or a smaller) hop
    // before. A token is re-forwarded if a lower-hop copy arrived later (a
    // queue-delayed short-path copy can lose the race to a long-path copy;
    // the relaxation keeps the reach of every token exact).
    if (ready_.empty()) return;
    std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
    Token& t = tokens_[ready_.back().slot];
    ready_.pop_back();
    t.queued = false;
    DASCHED_DCHECK(sendable(t) && t.hop < ctx.vround());
    t.sent_hop = t.hop;
    for (const auto& nb : ctx.neighbors()) {
      ctx.send(nb.neighbor, {t.key.label, t.key.sub, t.word, t.hop + 1});
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  std::vector<std::uint64_t> output() const override {
    // {min label, count, word_0 .. word_{s-1}} for the min label.
    std::vector<std::uint64_t> out(2 + algo_.words(), 0);
    out[0] = min_label_;
    const auto it = find(min_label_);
    if (it == index_.end() || it->label != min_label_) return out;
    std::uint64_t count = 0;
    for (std::uint32_t j = 0; j < algo_.words(); ++j) {
      const Token& t = tokens_[it->base + j];
      if (t.hop == kNoHop) continue;
      out[2 + j] = t.word;
      ++count;
    }
    out[1] = count;
    return out;
  }

 private:
  static constexpr std::uint32_t kNoHop = ~std::uint32_t{0};

  struct Token {
    TokenKey key;
    std::uint64_t word = 0;
    std::uint32_t hop = kNoHop;       // best (smallest) held hop-count
    std::uint32_t sent_hop = kNoHop;  // hop at the last send
    bool queued = false;              // in ready_
  };
  struct IndexEntry {
    std::uint64_t label;
    std::uint32_t base;  // first slot of the label's block
  };
  /// Ready-heap entry: the key is copied in so heap moves compare without
  /// touching the token table. Keys are unique, so the order is total.
  struct Ready {
    TokenKey key;
    std::uint32_t slot;

    bool operator>(const Ready& o) const { return o.key < key; }
  };

  bool sendable(const Token& t) const {
    return t.hop < algo_.hop_cap() && t.hop < t.sent_hop;
  }

  void mark_ready(std::uint32_t slot) {
    Token& t = tokens_[slot];
    if (t.queued || !sendable(t)) return;
    t.queued = true;
    ready_.push_back({t.key, slot});
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }

  std::vector<IndexEntry>::const_iterator find(std::uint64_t label) const {
    return std::lower_bound(
        index_.begin(), index_.end(), label,
        [](const IndexEntry& e, std::uint64_t l) { return e.label < l; });
  }

  /// First slot of `label`'s block, appending a fresh block on first sight.
  /// Consecutive messages mostly carry one label (a cluster's tokens travel
  /// together), so the last hit is checked before the index.
  std::uint32_t block(std::uint64_t label) {
    if (label == last_.label && !index_.empty()) return last_.base;
    const auto it = find(label);
    if (it != index_.end() && it->label == label) {
      last_ = *it;
      return it->base;
    }
    const auto base = static_cast<std::uint32_t>(tokens_.size());
    for (std::uint32_t j = 0; j < algo_.words(); ++j) tokens_.push_back({{label, j}});
    index_.insert(it, {label, base});
    last_ = {label, base};
    return base;
  }

  void init(VirtualContext& ctx) {
    std::uint32_t radius;
    std::uint64_t label;
    // Identical first draws as the clustering layer program.
    ClusteringBuilder::draw_node_params(ctx.rng(), algo_.dist(), ctx.self(), &radius,
                                        &label);
    min_label_ = label;
    const std::uint32_t initial_hop = algo_.hop_cap() - radius;
    own_ripe_round_ = initial_hop + 1;
    own_base_ = block(label);
    for (std::uint32_t j = 0; j < algo_.words(); ++j) {
      Token& t = tokens_[own_base_ + j];
      t.word = ctx.rng()();
      t.hop = initial_hop;
    }
  }

  void absorb(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      const std::uint64_t label = m.payload.at(0);
      const auto sub = static_cast<std::uint32_t>(m.payload.at(1));
      const auto hop = static_cast<std::uint32_t>(m.payload.at(3));
      DASCHED_CHECK_LT(sub, algo_.words(), "sharing token sub-label out of range");
      // A token sent in round r carries hop <= r, so it is ripe the moment
      // it arrives: the ready heap never holds an unripe foreign token.
      DASCHED_CHECK_LT(hop, ctx.vround(), "sharing token arrived unripe");
      min_label_ = std::min(min_label_, label);
      const std::uint32_t slot = block(label) + sub;
      Token& t = tokens_[slot];
      if (hop >= t.hop) continue;
      if (t.hop == kNoHop) t.word = m.payload.at(2);
      t.hop = hop;
      mark_ready(slot);
    }
  }

  const SharingLayerAlgorithm& algo_;
  std::uint64_t min_label_ = ~std::uint64_t{0};
  std::uint32_t own_base_ = 0;
  std::uint32_t own_ripe_round_ = 0;
  std::vector<Token> tokens_;
  std::vector<IndexEntry> index_;    // sorted by label
  IndexEntry last_{};                 // most recent block() result
  std::vector<Ready> ready_;          // min-heap of sendable, ripe tokens
};

std::unique_ptr<NodeProgram> SharingLayerAlgorithm::make_program(NodeId) const {
  return std::make_unique<SharingLayerProgram>(*this);
}

}  // namespace

SharedSeeds RandomnessSharing::run_distributed(const Graph& g,
                                               const Clustering& clustering) const {
  DASCHED_CHECK(!clustering.layers.empty());
  const std::uint32_t s = resolved_words(g.num_nodes());
  SharedSeeds result;
  result.words_per_seed = s;

  TimedSpan run_span(cfg_.telemetry, "rand_sharing", "run_distributed");
  run_span.arg("layers", static_cast<double>(clustering.num_layers()));
  run_span.arg("words_per_seed", s);
  SoloRunner runner(g);
  for (std::uint32_t l = 0; l < clustering.num_layers(); ++l) {
    TimedSpan layer_span(cfg_.telemetry, "rand_sharing", "layer");
    layer_span.arg("layer", l);
    SharingLayerAlgorithm algo(ClusteringBuilder::layer_seed(cfg_.seed, l),
                               clustering.radius_distribution_for_replay(),
                               clustering.hop_cap, s, cfg_.slack_rounds);
    const auto outputs = runner.outputs(algo);
    result.rounds += algo.rounds();
    if (cfg_.telemetry != nullptr) {
      cfg_.telemetry->add_counter("rand_sharing.rounds", algo.rounds());
      layer_span.arg("rounds", algo.rounds());
    }

    SharedSeeds::Layer layer;
    layer.words.resize(g.num_nodes());
    layer.center_label.resize(g.num_nodes());
    layer.complete.resize(g.num_nodes());
    std::uint64_t incomplete = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& out = outputs[v];
      layer.center_label[v] = out[0];
      layer.complete[v] = (out[1] == s) ? 1 : 0;
      if (layer.complete[v] == 0) ++incomplete;
      layer.words[v].assign(out.begin() + 2, out.end());
    }
    if (cfg_.telemetry != nullptr && incomplete > 0) {
      cfg_.telemetry->add_counter("rand_sharing.incomplete_nodes", incomplete);
    }
    result.layers.push_back(std::move(layer));
  }
  return result;
}

SharedSeeds RandomnessSharing::run_central(const Graph& g,
                                           const Clustering& clustering) const {
  const std::uint32_t s = resolved_words(g.num_nodes());
  SharedSeeds result;
  result.words_per_seed = s;
  result.rounds = 0;

  const auto dist = clustering.radius_distribution_for_replay();
  for (std::uint32_t l = 0; l < clustering.num_layers(); ++l) {
    const std::uint64_t lseed = ClusteringBuilder::layer_seed(cfg_.seed, l);
    // Per center: replay the draw sequence (radius, label, then s words).
    std::vector<std::vector<std::uint64_t>> center_words(g.num_nodes());
    auto words_of = [&](NodeId u) -> const std::vector<std::uint64_t>& {
      if (center_words[u].empty()) {
        Rng rng(seed_combine(lseed, u));
        std::uint32_t radius;
        std::uint64_t label;
        ClusteringBuilder::draw_node_params(rng, dist, u, &radius, &label);
        center_words[u].reserve(s);
        for (std::uint32_t j = 0; j < s; ++j) center_words[u].push_back(rng());
      }
      return center_words[u];
    };

    SharedSeeds::Layer layer;
    layer.words.resize(g.num_nodes());
    layer.center_label.resize(g.num_nodes());
    layer.complete.assign(g.num_nodes(), 1);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId center = clustering.layers[l].center[v];
      layer.words[v] = words_of(center);
      layer.center_label[v] = clustering.layers[l].label[v];
    }
    result.layers.push_back(std::move(layer));
  }
  return result;
}

}  // namespace dasched
