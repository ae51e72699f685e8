#include "sched/rand_sharing.hpp"

#include <algorithm>
#include <bit>
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

/// One announce message carries this many layers' center labels.
constexpr std::uint32_t kLabelsPerAnnounce = 4;
constexpr std::uint32_t kMaxLayers = 64;  // one-word boundary bitmask

/// Forwarding priority of a token: (label, layer << 32 | sub). The held
/// hop-count plays two separate roles, exactly as in Lemma 4.2's flood:
/// *ripeness* (a token with hop-count h moves no earlier than round h+1 --
/// the paper's "the message with hop-count i" synchronization) and *budget*
/// (a token never travels more than H hop-units, fake initial hops included,
/// so it reaches exactly its center's ball). Queueing delay does not consume
/// budget; Lenzen's pipelining bounds the delay by the token's rank.
struct TokenKey {
  std::uint64_t label;
  std::uint64_t layer_sub;

  std::uint32_t layer() const { return static_cast<std::uint32_t>(layer_sub >> 32); }
  auto operator<=>(const TokenKey&) const = default;
};

/// All layers of Lemmas 4.2 + 4.3 as one CONGEST algorithm.
///
/// Rounds 1..T (T = H + 3Ls + slack): the token pipeline.
/// Rounds T+1..T+A (A = ceil(L/4)):  announce 4 layers' center labels each.
/// Rounds T+A+1..T+A+D:              boundary BFS, one layer bitmask each.
/// Output per layer: {center label, h', word count, word_0 .. word_{s-1}}.
class PrecomputeAlgorithm final : public DistributedAlgorithm {
 public:
  PrecomputeAlgorithm(std::uint64_t seed, TruncatedExponentialRadius dist,
                      std::uint32_t hop_cap, std::uint32_t layers, std::uint32_t words,
                      std::uint32_t slack, std::uint32_t query_cap)
      : DistributedAlgorithm(seed),
        dist_(dist),
        hop_cap_(hop_cap),
        layers_(layers),
        words_(words),
        token_rounds_(hop_cap + 3 * layers * words + slack),
        announce_rounds_((layers + kLabelsPerAnnounce - 1) / kLabelsPerAnnounce),
        query_cap_(query_cap) {}

  std::string name() const override { return "precompute"; }
  /// Pattern is data/seed-driven (opaque); the widest message is a token
  /// {label, layer<<32 | sub, word, hop} or an announce of 4 labels.
  StaticFootprint static_footprint() const override {
    StaticFootprint f = StaticFootprint::opaque();
    f.max_payload_words = 4;
    return f;
  }
  std::uint32_t rounds() const override {
    return token_rounds_ + announce_rounds_ + query_cap_;
  }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;

  const TruncatedExponentialRadius& dist() const { return dist_; }
  std::uint32_t hop_cap() const { return hop_cap_; }
  std::uint32_t layers() const { return layers_; }
  std::uint32_t words() const { return words_; }
  std::uint32_t token_rounds() const { return token_rounds_; }
  std::uint32_t announce_rounds() const { return announce_rounds_; }
  std::uint32_t query_cap() const { return query_cap_; }

 private:
  TruncatedExponentialRadius dist_;
  std::uint32_t hop_cap_;        // H
  std::uint32_t layers_;         // L
  std::uint32_t words_;          // s
  std::uint32_t token_rounds_;   // T
  std::uint32_t announce_rounds_;  // A
  std::uint32_t query_cap_;      // D: h' is learned up to this radius
};

/// One node. Token state is a flat table: every (layer, label) the node has
/// heard owns a block of s consecutive slots (slot = base + sub), an index
/// sorted by (layer, label) finds a block in O(log B) for B blocks, and a
/// min-heap keyed by TokenKey holds exactly the tokens that are sendable and
/// ripe, each at most once. The domination test at pop time scans the
/// smaller labels of the token's layer, which sit just before its block in
/// the index.
class PrecomputeProgram final : public NodeProgram {
 public:
  explicit PrecomputeProgram(const PrecomputeAlgorithm& algo)
      : algo_(algo),
        min_label_(algo.layers(), ~std::uint64_t{0}),
        h_prime_(algo.layers(), algo.query_cap()) {}

  void on_round(VirtualContext& ctx) override {
    const std::uint32_t i = ctx.vround();
    if (i == 1) init(ctx);
    absorb(ctx);
    if (i <= algo_.token_rounds()) {
      send_token(ctx);
    } else if (i <= algo_.token_rounds() + algo_.announce_rounds()) {
      announce(ctx, i - algo_.token_rounds() - 1);
    } else if (fresh_ != 0) {
      // Layers whose boundary distance this node learned in this round (the
      // boundary layers themselves in the first BFS round).
      for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, {fresh_});
      fresh_ = 0;
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb(ctx); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    const std::uint32_t s = algo_.words();
    const std::size_t first = words.size();
    words.resize(first + std::size_t{algo_.layers()} * (3 + s), 0);
    for (std::uint32_t l = 0; l < algo_.layers(); ++l) {
      std::uint64_t* o = words.data() + first + std::size_t{l} * (3 + s);
      o[0] = min_label_[l];
      o[1] = (boundary_ >> l & 1) != 0 ? 0 : h_prime_[l];
      // Every label in min_label_ was first seen by init or absorb_tokens,
      // both of which open its block.
      const auto it = find(l, min_label_[l]);
      DASCHED_DCHECK(it != index_.end() && it->layer == l && it->label == min_label_[l]);
      for (std::uint32_t j = 0; j < s; ++j) {
        const Token& t = tokens_[it->base + j];
        if (t.hop == kNoHop) continue;
        o[3 + j] = t.word;
        ++o[2];
      }
    }
  }

 private:
  static constexpr std::uint32_t kNoHop = ~std::uint32_t{0};

  struct Token {
    std::uint64_t word = 0;
    std::uint32_t hop = kNoHop;       // best (smallest) held hop-count
    std::uint32_t sent_hop = kNoHop;  // hop at the last send
    bool queued = false;              // in ready_
  };
  struct Block {
    std::uint64_t label;
    std::uint32_t layer;
    std::uint32_t base;  // first slot of the block
  };
  /// Ready-heap entry: the key is copied in so heap moves compare without
  /// touching the token table. Keys are unique, so the order is total.
  struct Ready {
    TokenKey key;
    std::uint32_t slot;

    bool operator>(const Ready& o) const { return o.key < key; }
  };
  struct Ripening {
    std::uint64_t label;  // the node's own label in `layer`
    std::uint32_t round;
    std::uint32_t layer;
  };

  bool sendable(const Token& t) const {
    return t.hop < algo_.hop_cap() && t.hop < t.sent_hop;
  }

  void mark_ready(TokenKey key, std::uint32_t slot) {
    Token& t = tokens_[slot];
    if (t.queued || !sendable(t)) return;
    t.queued = true;
    ready_.push_back({key, slot});
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }

  std::vector<Block>::const_iterator find(std::uint32_t layer, std::uint64_t label) const {
    return std::lower_bound(index_.begin(), index_.end(), Block{label, layer, 0},
                            [](const Block& a, const Block& b) {
                              return a.layer != b.layer ? a.layer < b.layer
                                                        : a.label < b.label;
                            });
  }

  /// First slot of (layer, label)'s block, appending a fresh block on first
  /// sight. Consecutive messages mostly carry one label (a cluster's tokens
  /// travel together), so the last hit is checked before the index.
  std::uint32_t block(std::uint32_t layer, std::uint64_t label) {
    if (label == last_.label && layer == last_.layer && !index_.empty()) return last_.base;
    const auto it = find(layer, label);
    if (it != index_.end() && it->label == label && it->layer == layer) {
      last_ = *it;
      return it->base;
    }
    const auto base = static_cast<std::uint32_t>(tokens_.size());
    tokens_.resize(tokens_.size() + algo_.words());
    best_hop_.push_back(kNoHop);
    last_ = {label, layer, base};
    index_.insert(it, last_);
    return base;
  }

  std::uint32_t& best_hop(std::uint32_t base) { return best_hop_[base / algo_.words()]; }

  /// Whether a smaller label of `layer` is held at a best hop <= `hop`: then
  /// every node within the token's remaining budget lies in that label's
  /// ball, so the token is needed nowhere it can still go.
  bool dominated(TokenKey key, std::uint32_t hop) const {
    const std::uint32_t layer = key.layer();
    for (auto it = find(layer, key.label); it != index_.begin();) {
      --it;
      if (it->layer != layer) break;
      if (best_hop_[it->base / algo_.words()] <= hop) return true;
    }
    return false;
  }

  void init(VirtualContext& ctx) {
    for (std::uint32_t l = 0; l < algo_.layers(); ++l) {
      Rng rng(seed_combine(ClusteringBuilder::layer_seed(algo_.base_seed(), l), ctx.self()));
      std::uint32_t radius;
      std::uint64_t label;
      ClusteringBuilder::draw_node_params(rng, algo_.dist(), ctx.self(), &radius, &label);
      min_label_[l] = label;
      // Fake initial hop-count H - r(u): own tokens ripen together at round
      // H - r(u) + 1.
      const std::uint32_t initial_hop = algo_.hop_cap() - radius;
      const std::uint32_t base = block(l, label);
      best_hop(base) = initial_hop;
      for (std::uint32_t j = 0; j < algo_.words(); ++j) {
        tokens_[base + j].word = rng();
        tokens_[base + j].hop = initial_hop;
      }
      ripening_.push_back({label, initial_hop + 1, l});
    }
    std::sort(ripening_.begin(), ripening_.end(), [](const Ripening& a, const Ripening& b) {
      return a.round > b.round;  // popped from the back, earliest first
    });
  }

  void send_token(VirtualContext& ctx) {
    while (!ripening_.empty() && ripening_.back().round == ctx.vround()) {
      const Ripening own = ripening_.back();
      ripening_.pop_back();
      const std::uint32_t base = block(own.layer, own.label);
      for (std::uint32_t j = 0; j < algo_.words(); ++j) {
        mark_ready({own.label, std::uint64_t{own.layer} << 32 | j}, base + j);
      }
    }
    // Send the smallest ripe, in-budget, improved token that is not
    // dominated; dominated tokens leave the heap for good (domination only
    // grows), unless a lower-hop copy arrives later.
    while (!ready_.empty()) {
      std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
      const Ready r = ready_.back();
      ready_.pop_back();
      Token& t = tokens_[r.slot];
      t.queued = false;
      DASCHED_DCHECK(sendable(t) && t.hop < ctx.vround());
      if (dominated(r.key, t.hop)) continue;
      t.sent_hop = t.hop;
      for (const auto& nb : ctx.neighbors()) {
        ctx.send(nb.neighbor, {r.key.label, r.key.layer_sub, t.word, t.hop + 1});
      }
      return;
    }
  }

  void announce(VirtualContext& ctx, std::uint32_t chunk) {
    const std::uint32_t first = chunk * kLabelsPerAnnounce;
    const std::uint32_t count = std::min(kLabelsPerAnnounce, algo_.layers() - first);
    Payload labels(count, 0);
    for (std::uint32_t k = 0; k < count; ++k) labels[k] = min_label_[first + k];
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.neighbor, labels);
  }

  /// Messages sent in round vround()-1, read by the phase of that round.
  void absorb(VirtualContext& ctx) {
    const std::uint32_t sent = ctx.vround() - 1;
    const std::uint32_t t = algo_.token_rounds();
    const std::uint32_t a = algo_.announce_rounds();
    if (sent <= t) {
      absorb_tokens(ctx);
    } else if (sent <= t + a) {
      const std::uint32_t first = (sent - t - 1) * kLabelsPerAnnounce;
      for (const auto& m : ctx.inbox()) {
        for (std::uint32_t k = 0; k < m.payload.size(); ++k) {
          if (m.payload[k] != min_label_[first + k]) boundary_ |= std::uint64_t{1} << (first + k);
        }
      }
      if (sent == t + a) fresh_ = boundary_;  // the BFS starts at the boundary
    } else {
      const std::uint32_t dist = sent - (t + a);
      for (const auto& m : ctx.inbox()) {
        const std::uint64_t learned = m.payload.at(0) & ~(boundary_ | known_);
        known_ |= learned;
        fresh_ |= learned;
        for (std::uint64_t bits = learned; bits != 0; bits &= bits - 1) {
          h_prime_[std::countr_zero(bits)] = dist;
        }
      }
    }
  }

  void absorb_tokens(VirtualContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      const TokenKey key{m.payload.at(0), m.payload.at(1)};
      const std::uint32_t layer = key.layer();
      const auto sub = static_cast<std::uint32_t>(key.layer_sub);
      const auto hop = static_cast<std::uint32_t>(m.payload.at(3));
      DASCHED_CHECK_LT(layer, algo_.layers(), "sharing token layer out of range");
      DASCHED_CHECK_LT(sub, algo_.words(), "sharing token sub-label out of range");
      // A token sent in round r carries hop <= r, so it is ripe the moment
      // it arrives: the ready heap never holds an unripe foreign token.
      DASCHED_CHECK_LT(hop, ctx.vround(), "sharing token arrived unripe");
      min_label_[layer] = std::min(min_label_[layer], key.label);
      const std::uint32_t base = block(layer, key.label);
      best_hop(base) = std::min(best_hop(base), hop);
      Token& tok = tokens_[base + sub];
      if (hop >= tok.hop) continue;
      if (tok.hop == kNoHop) tok.word = m.payload.at(2);
      tok.hop = hop;
      mark_ready(key, base + sub);
    }
  }

  const PrecomputeAlgorithm& algo_;
  std::vector<std::uint64_t> min_label_;  // per layer: smallest label heard
  std::vector<std::uint32_t> h_prime_;    // per layer, once known_ (else D)
  std::vector<Token> tokens_;
  std::vector<std::uint32_t> best_hop_;   // per block: smallest hop of any sub
  std::vector<Block> index_;              // sorted by (layer, label)
  Block last_{};                          // most recent block() result
  std::vector<Ready> ready_;              // min-heap of sendable, ripe tokens
  std::vector<Ripening> ripening_;        // own layers not yet ripe, latest first
  std::uint64_t boundary_ = 0;            // layers where this node is boundary
  std::uint64_t known_ = 0;               // layers whose boundary distance is known
  std::uint64_t fresh_ = 0;               // layers to forward in this BFS round
};

NodeProgram& PrecomputeAlgorithm::construct_program(NodeId, ProgramArena& arena) const {
  return arena.make<PrecomputeProgram>(*this);
}

}  // namespace

Precomputation RandomnessSharing::run_distributed(const Graph& g,
                                                  const ClusteringBuilder& builder) const {
  const ClusteringConfig& ccfg = builder.config();
  DASCHED_CHECK_EQ(ccfg.seed, cfg_.seed, "clustering and sharing must share one seed");
  const NodeId n = g.num_nodes();
  const std::uint32_t layers = builder.resolved_layers(n);
  const std::uint32_t s = resolved_words(n);
  // The boundary bitmask is one word, and s is a u32, so layer<<32 | sub fits.
  DASCHED_CHECK_LE(layers, kMaxLayers, "the precomputation packs layers into one word");

  Precomputation result;
  result.clustering = builder.frame(g);
  Clustering& clustering = result.clustering;
  SharedSeeds& seeds = result.seeds;
  seeds.words_per_seed = s;

  TimedSpan run_span(cfg_.telemetry, "rand_sharing", "run_distributed");
  run_span.arg("layers", layers);
  run_span.arg("words_per_seed", s);
  const PrecomputeAlgorithm algo(cfg_.seed, clustering.radius_distribution_for_replay(),
                                 clustering.hop_cap, layers, s, cfg_.slack_rounds,
                                 clustering.radius_query_cap);
  const auto outputs = solo_outputs(g, algo);
  seeds.rounds = algo.token_rounds();
  clustering.precomputation_rounds = algo.rounds() - algo.token_rounds();
  run_span.arg("rounds", algo.rounds());

  std::uint64_t incomplete = 0;
  for (std::uint32_t l = 0; l < layers; ++l) {
    ClusterLayer cl;
    cl.center.resize(n);
    cl.label.resize(n);
    cl.h_prime.resize(n);
    SharedSeeds::Layer sl;
    sl.words.resize(n);
    sl.center_label.resize(n);
    sl.complete.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t* o = outputs[v].data() + std::size_t{l} * (3 + s);
      cl.label[v] = o[0];
      cl.center[v] = static_cast<NodeId>(o[0] & 0xffffffffu);
      cl.h_prime[v] = static_cast<std::uint32_t>(o[1]);
      sl.center_label[v] = o[0];
      sl.complete[v] = o[2] == s ? 1 : 0;
      if (sl.complete[v] == 0) ++incomplete;
      sl.words[v].assign(o + 3, o + 3 + s);
    }
    cl.record_metrics(ccfg.telemetry);
    clustering.layers.push_back(std::move(cl));
    seeds.layers.push_back(std::move(sl));
  }
  if (ccfg.telemetry != nullptr) {
    ccfg.telemetry->add_counter("clustering.rounds", clustering.precomputation_rounds);
  }
  if (cfg_.telemetry != nullptr) {
    cfg_.telemetry->add_counter("rand_sharing.rounds", seeds.rounds);
    if (incomplete > 0) cfg_.telemetry->add_counter("rand_sharing.incomplete_nodes", incomplete);
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
