#include "algos/mst.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>
#include <set>

#include "graph/algorithms.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace dasched {

namespace {

// Message tags.
constexpr std::uint64_t kTagFragId = 1;
constexpr std::uint64_t kTagCandidate = 2;  // {tag, w, u, v}
constexpr std::uint64_t kTagDecision = 3;   // {tag, merge?, u, v}
constexpr std::uint64_t kTagActivate = 4;
constexpr std::uint64_t kTagFlood = 5;      // {tag, best id}
constexpr std::uint64_t kTagWave = 6;
constexpr std::uint64_t kTagUpBfs = 7;
constexpr std::uint64_t kTagUpCand = 8;     // {tag, w, u, v} (+frags below)
constexpr std::uint64_t kTagChosen = 9;     // {tag, u, v}
constexpr std::uint64_t kTagChild = 10;     // BFS-child announcement
constexpr std::uint64_t kTagUpDone = 11;    // child's upcast stream finished

constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};

/// Minimal union-find keyed by fragment id (sparse).
class SparseUnionFind {
 public:
  NodeId find(NodeId x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_[x] = x;
      return x;
    }
    NodeId root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      const NodeId next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::map<NodeId, NodeId> parent_;
};

struct CandidateEdge {
  std::uint64_t w = ~std::uint64_t{0};
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;     // endpoints; fragment(u) != fragment(v)
  NodeId fu = kInvalidNode;
  NodeId fv = kInvalidNode;

  bool operator>(const CandidateEdge& o) const { return w > o.w; }
};

}  // namespace

std::vector<std::uint64_t> make_mst_weights(const Graph& g, std::uint64_t seed) {
  // Distinct by construction: random high bits, edge id low bits.
  std::vector<std::uint64_t> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    w[e] = (splitmix64(seed_combine(seed, e)) << 20) | e;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Central planner: replays the deterministic fragment evolution.
// ---------------------------------------------------------------------------

namespace {

/// Max eccentricity-from-min-id-node over fragments, using only `frag_edge`.
std::uint32_t max_fragment_depth(const Graph& g, const std::vector<NodeId>& frag,
                                 const std::vector<std::uint8_t>& frag_edge) {
  const NodeId n = g.num_nodes();
  std::uint32_t worst = 0;
  std::vector<std::uint32_t> dist(n);
  std::vector<NodeId> queue;
  for (NodeId root = 0; root < n; ++root) {
    if (frag[root] != root) continue;  // fragment id == min node id == root
    // BFS from root over fragment edges.
    dist.assign(n, kUnreachable);
    queue.clear();
    dist[root] = 0;
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      worst = std::max(worst, dist[x]);
      for (const auto& h : g.neighbors(x)) {
        if (frag_edge[h.edge] && frag[h.neighbor] == root &&
            dist[h.neighbor] == kUnreachable) {
          dist[h.neighbor] = dist[x] + 1;
          queue.push_back(h.neighbor);
        }
      }
    }
  }
  return worst;
}

}  // namespace

MstPlan plan_mst(const Graph& g, const std::vector<std::uint64_t>& weights,
                 std::uint32_t target_fragments) {
  DASCHED_CHECK(g.num_nodes() >= 1);
  DASCHED_CHECK(weights.size() == g.num_edges());
  DASCHED_CHECK(target_fragments >= 1);
  const NodeId n = g.num_nodes();

  std::vector<NodeId> frag(n);
  for (NodeId v = 0; v < n; ++v) frag[v] = v;
  std::vector<std::uint8_t> frag_edge(g.num_edges(), 0);
  std::uint32_t num_fragments = n;

  MstPlan plan;
  std::uint32_t depth_before = 0;
  const std::uint32_t max_phases = 20 + 4 * (n > 1 ? ceil_log2(n) : 1);

  for (std::uint32_t p = 0; p < max_phases && num_fragments > target_fragments &&
                            num_fragments > 1;
       ++p) {
    // Per-fragment MWOE.
    std::map<NodeId, CandidateEdge> mwoe;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [a, b] = g.endpoints(e);
      if (frag[a] == frag[b]) continue;
      for (const NodeId f : {frag[a], frag[b]}) {
        auto& best = mwoe[f];
        if (weights[e] < best.w) {
          best = {weights[e], a, b, frag[a], frag[b]};
        }
      }
    }
    // Star contraction: tail fragments merge over their MWOE into heads.
    std::vector<EdgeId> activated;
    for (const auto& [f, cand] : mwoe) {
      if (PipelineMstAlgorithm::is_head(f, p)) continue;  // heads do not propose
      const NodeId other = (cand.fu == f) ? cand.fv : cand.fu;
      if (!PipelineMstAlgorithm::is_head(other, p)) continue;
      const EdgeId e = g.find_edge(cand.u, cand.v);
      DASCHED_CHECK(e != kInvalidEdge);
      activated.push_back(e);
    }
    for (const EdgeId e : activated) frag_edge[e] = 1;

    // Recompute fragments as components over fragment edges.
    {
      std::vector<NodeId> new_frag(n, kInvalidNode);
      std::vector<NodeId> queue;
      for (NodeId v = 0; v < n; ++v) {
        if (new_frag[v] != kInvalidNode) continue;
        // BFS; component id = min node id, and nodes are visited from the
        // smallest id first, so v is the minimum of its component.
        queue.clear();
        queue.push_back(v);
        new_frag[v] = v;
        for (std::size_t head = 0; head < queue.size(); ++head) {
          const NodeId x = queue[head];
          for (const auto& h : g.neighbors(x)) {
            if (frag_edge[h.edge] && new_frag[h.neighbor] == kInvalidNode) {
              new_frag[h.neighbor] = v;
              queue.push_back(h.neighbor);
            }
          }
        }
      }
      frag = std::move(new_frag);
    }
    num_fragments = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (frag[v] == v) ++num_fragments;
    }

    const std::uint32_t diameter_after = max_fragment_depth(g, frag, frag_edge);
    MstPhasePlan phase;
    phase.depth_before = depth_before;
    phase.diameter_after = diameter_after;
    phase.budget = 2 * depth_before + 2 * diameter_after + 5;
    plan.phases.push_back(phase);
    depth_before = diameter_after;

    if (activated.empty()) {
      // Coins can stall a phase but never two consecutive ones for the same
      // pair pattern is not guaranteed; keep going until the cap.
      continue;
    }
  }

  plan.num_fragments = num_fragments;
  plan.bfs_depth = (n > 1) ? eccentricity(g, 0) : 0;

  // Exact upcast budget: replay the safety-frontier filtered pipeline
  // centrally, slot-synchronously, with the exact rules of the program:
  // a node emits its heap minimum only when every BFS child has either
  // finished (DONE) or already delivered a weight at least as large (child
  // streams are nondecreasing, so nothing smaller can still arrive).
  {
    const auto dist0 = bfs_distances(g, 0);
    std::vector<NodeId> up_parent(n, kInvalidNode);
    std::vector<std::vector<NodeId>> children(n);
    for (NodeId v = 1; v < n; ++v) {
      for (const auto& h : g.neighbors(v)) {
        if (dist0[h.neighbor] + 1 == dist0[v]) {
          up_parent[v] = h.neighbor;
          break;  // neighbors sorted by id -> min-id parent
        }
      }
      DASCHED_CHECK(up_parent[v] != kInvalidNode);
      children[up_parent[v]].push_back(v);
    }
    using Heap = std::priority_queue<CandidateEdge, std::vector<CandidateEdge>,
                                     std::greater<CandidateEdge>>;
    std::vector<Heap> heap(n);
    std::vector<SparseUnionFind> uf(n);
    std::vector<std::map<NodeId, std::uint64_t>> last_w(n);  // child -> frontier
    std::vector<std::map<NodeId, bool>> child_done(n);
    std::vector<std::uint8_t> done_sent(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId c : children[v]) child_done[v][c] = false;
    }
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& h : g.neighbors(v)) {
        if (frag[h.neighbor] != frag[v] && v < h.neighbor && v != 0) {
          heap[v].push({weights[h.edge], v, h.neighbor, frag[v], frag[h.neighbor]});
        }
      }
    }
    struct Delivery {
      NodeId to;
      NodeId from;
      bool done;
      CandidateEdge edge;
    };
    std::uint32_t slot = 0;
    std::uint32_t last_send_slot = 0;
    bool active = true;
    std::vector<Delivery> staged;
    while (active) {
      ++slot;
      DASCHED_CHECK_MSG(slot < 16u * (g.num_edges() + n + 2),
                        "mst planner: upcast did not drain");
      active = false;
      staged.clear();
      for (NodeId v = 1; v < n; ++v) {
        if (done_sent[v]) continue;
        active = true;
        bool emitted = false;
        while (!heap[v].empty()) {
          const CandidateEdge c = heap[v].top();
          bool safe = true;
          for (const NodeId ch : children[v]) {
            if (child_done[v][ch]) continue;
            const auto it = last_w[v].find(ch);
            if (it == last_w[v].end() || it->second < c.w) {
              safe = false;
              break;
            }
          }
          if (!safe) break;
          heap[v].pop();
          if (uf[v].find(c.fu) == uf[v].find(c.fv)) continue;  // filtered
          uf[v].unite(c.fu, c.fv);
          staged.push_back({up_parent[v], v, false, c});
          last_send_slot = slot;
          emitted = true;
          break;
        }
        if (!emitted && heap[v].empty()) {
          bool all_done = true;
          for (const NodeId ch : children[v]) all_done &= child_done[v][ch];
          if (all_done) {
            staged.push_back({up_parent[v], v, true, {}});
            last_send_slot = slot;
            done_sent[v] = 1;
          }
        }
      }
      for (const auto& d : staged) {
        if (d.done) {
          child_done[d.to][d.from] = true;
        } else {
          last_w[d.to][d.from] = d.edge.w;
          if (d.to != 0) heap[d.to].push(d.edge);
        }
      }
    }
    plan.upcast_rounds = last_send_slot + 2;
  }
  plan.downcast_rounds = plan.bfs_depth + plan.num_fragments + 4;

  std::uint32_t total = 0;
  for (const auto& ph : plan.phases) total += ph.budget;
  // Upcast layout: 1 (frag ids) + (1 + bfs_depth) (BFS wave) + 1 (child
  // announcements) + upcast_rounds (pipeline slots) + downcast_rounds.
  total += 3 + plan.bfs_depth + plan.upcast_rounds + plan.downcast_rounds;
  plan.total_rounds = total;
  return plan;
}

// ---------------------------------------------------------------------------
// The distributed program.
// ---------------------------------------------------------------------------

namespace {

class PipelineMstProgram final : public NodeProgram {
 public:
  PipelineMstProgram(const PipelineMstAlgorithm& algo, NodeId self)
      : algo_(algo), self_(self), frag_(self) {
    const auto& g = algo_.graph();
    for (const auto& h : g.neighbors(self)) {
      incident_.push_back({h.neighbor, h.edge, algo_.weights()[h.edge]});
      nbr_frag_.push_back(kInvalidNode);
      is_frag_edge_.push_back(false);
      is_mst_edge_.push_back(false);
    }
    // Phase start offsets (prefix sums of budgets).
    std::uint32_t t = 0;
    for (const auto& ph : algo_.plan().phases) {
      phase_start_.push_back(t);
      t += ph.budget;
    }
    upcast_start_ = t;
  }

  void on_round(VirtualContext& ctx) override {
    const std::uint32_t r = ctx.vround();
    if (r <= upcast_start_) {
      fragment_phase_round(ctx, r);
    } else {
      upcast_phase_round(ctx, r - upcast_start_);
    }
  }

  void on_finish(VirtualContext& ctx) override { absorb_upcast(ctx, ~0u); }

  void write_output(std::vector<std::uint64_t>& words) const override {
    const std::size_t first = words.size();
    for (std::size_t i = 0; i < incident_.size(); ++i) {
      if (is_frag_edge_[i] || is_mst_edge_[i]) words.push_back(incident_[i].edge);
    }
    std::sort(words.begin() + static_cast<std::ptrdiff_t>(first), words.end());
  }

 private:
  struct Incident {
    NodeId neighbor;
    EdgeId edge;
    std::uint64_t weight;
    std::uint32_t sent_round = 0;  // last virtual round that sent on this edge
  };

  std::size_t incident_index(NodeId neighbor) const {
    for (std::size_t i = 0; i < incident_.size(); ++i) {
      if (incident_[i].neighbor == neighbor) return i;
    }
    DASCHED_CHECK_MSG(false, "message from non-neighbor");
    return 0;
  }

  // Every send goes through here: at most one message per neighbor per
  // round, the first one winning. A fault-free run never sends twice, but
  // crash-stop faults leave survivors with partial inboxes and stale
  // fragment state (a decision can name an edge that is already a fragment
  // edge), and that must leave nodes with wrong outputs, not break the
  // engine's one-message-per-edge contract.
  void send(VirtualContext& ctx, std::size_t i, Payload payload) {
    if (incident_[i].sent_round == ctx.vround()) return;
    incident_[i].sent_round = ctx.vround();
    ctx.send(incident_[i].neighbor, payload);
  }
  void send_to(VirtualContext& ctx, NodeId neighbor, Payload payload) {
    send(ctx, incident_index(neighbor), payload);
  }
  void send_all(VirtualContext& ctx, Payload payload) {
    for (std::size_t i = 0; i < incident_.size(); ++i) send(ctx, i, payload);
  }

  void send_frag_edges(VirtualContext& ctx, Payload payload) {
    for (std::size_t i = 0; i < incident_.size(); ++i) {
      if (is_frag_edge_[i]) send(ctx, i, payload);
    }
  }

  // ---- Fragment (Boruvka) phases. ----

  void fragment_phase_round(VirtualContext& ctx, std::uint32_t r) {
    // Identify the current phase.
    while (phase_cursor_ + 1 < phase_start_.size() &&
           r > phase_start_[phase_cursor_ + 1]) {
      ++phase_cursor_;
    }
    if (phase_cursor_ >= algo_.plan().phases.size()) return;
    const auto& ph = algo_.plan().phases[phase_cursor_];
    const std::uint32_t l = r - phase_start_[phase_cursor_];  // local round, 1-based
    const std::uint32_t dp = ph.depth_before;
    const std::uint32_t da = ph.diameter_after;
    const std::uint32_t l_dec = dp + 2;
    const std::uint32_t l_flood = 2 * dp + 4;
    const std::uint32_t l_wave = 2 * dp + da + 5;

    if (l == 1) begin_phase();

    absorb_fragment(ctx, l, l_wave);

    if (l == 1) {
      send_all(ctx, {kTagFragId, frag_});
      return;
    }

    // Timed convergecast: depth d sends at l = 2 + (dp - d).
    if (depth_ > 0 && dp >= depth_ && l == 2 + (dp - depth_)) {
      if (best_cand_.w != ~std::uint64_t{0}) {
        send_to(ctx, parent_,
                {kTagCandidate, best_cand_.w, best_cand_.u, best_cand_.v,
                 pack_frags(best_cand_)});
      }
      return;
    }

    // Root decision + broadcast start.
    if (depth_ == 0 && l == l_dec) {
      decide_merge(ctx);
      return;
    }

    // Broadcast forwarding + activation are handled in absorb_fragment.

    // Min-id flood.
    if (l >= l_flood && l < l_wave) {
      if (flood_best_ != flood_sent_) {
        send_frag_edges(ctx, {kTagFlood, flood_best_});
        flood_sent_ = flood_best_;
      }
      return;
    }

    // BFS wave start (the new root).
    if (l == l_wave && flood_best_ == self_) {
      frag_ = self_;
      parent_ = self_;
      depth_ = 0;
      wave_done_ = true;
      send_frag_edges(ctx, {kTagWave});
      return;
    }
  }

  void begin_phase() {
    best_cand_ = CandidateEdge{};
    own_done_ = false;
    decision_seen_ = false;
    flood_best_ = frag_;
    flood_sent_ = kNoEdge;  // force one flood send
    wave_done_ = false;
  }

  std::uint64_t pack_frags(const CandidateEdge& c) const {
    return (static_cast<std::uint64_t>(c.fu) << 32) | c.fv;
  }

  void merge_own_candidate() {
    if (own_done_) return;
    own_done_ = true;
    for (std::size_t i = 0; i < incident_.size(); ++i) {
      if (nbr_frag_[i] != kInvalidNode && nbr_frag_[i] != frag_ &&
          incident_[i].weight < best_cand_.w) {
        best_cand_ = {incident_[i].weight, self_, incident_[i].neighbor, frag_,
                      nbr_frag_[i]};
      }
    }
  }

  void decide_merge(VirtualContext& ctx) {
    merge_own_candidate();
    const std::uint32_t p = phase_cursor_;
    if (best_cand_.w == ~std::uint64_t{0}) return;                // spanning fragment
    if (PipelineMstAlgorithm::is_head(frag_, p)) return;          // heads wait
    const NodeId other = (best_cand_.fu == frag_) ? best_cand_.fv : best_cand_.fu;
    if (!PipelineMstAlgorithm::is_head(other, p)) return;         // tail->tail: stall
    // Announce the merge over the fragment tree (the root may itself be the
    // MWOE endpoint).
    handle_decision(ctx, best_cand_.u, best_cand_.v);
  }

  void handle_decision(VirtualContext& ctx, NodeId u, NodeId v) {
    if (decision_seen_) return;
    decision_seen_ = true;
    send_frag_edges(ctx, {kTagDecision, u, v});
    if (self_ == u) {
      const auto i = incident_index(v);
      is_frag_edge_[i] = true;
      send(ctx, i, {kTagActivate});
    }
  }

  void absorb_fragment(VirtualContext& ctx, std::uint32_t l, std::uint32_t l_wave) {
    for (const auto& m : ctx.inbox()) {
      switch (m.payload.at(0)) {
        case kTagFragId:
          nbr_frag_[incident_index(m.from)] = m.payload.at(1);
          break;
        case kTagCandidate: {
          merge_own_candidate();
          CandidateEdge c;
          c.w = m.payload.at(1);
          c.u = static_cast<NodeId>(m.payload.at(2));
          c.v = static_cast<NodeId>(m.payload.at(3));
          c.fu = static_cast<NodeId>(m.payload.at(4) >> 32);
          c.fv = static_cast<NodeId>(m.payload.at(4) & 0xffffffffu);
          if (c.w < best_cand_.w) best_cand_ = c;
          break;
        }
        case kTagDecision:
          handle_decision(ctx, static_cast<NodeId>(m.payload.at(1)),
                          static_cast<NodeId>(m.payload.at(2)));
          break;
        case kTagActivate:
          is_frag_edge_[incident_index(m.from)] = true;
          break;
        case kTagFlood: {
          const std::uint64_t candidate = m.payload.at(1);
          if (candidate < flood_best_) flood_best_ = static_cast<NodeId>(candidate);
          break;
        }
        case kTagWave:
          if (!wave_done_) {
            wave_done_ = true;
            frag_ = static_cast<NodeId>(flood_best_);
            parent_ = m.from;
            depth_ = l - l_wave;
            if (l < l_wave + algo_.plan().phases[phase_cursor_].diameter_after) {
              // Forward immediately (same-round absorb-then-send).
              for (std::size_t i = 0; i < incident_.size(); ++i) {
                if (is_frag_edge_[i] && incident_[i].neighbor != m.from) {
                  send(ctx, i, {kTagWave});
                }
              }
            }
          } else if (l == depth_ + l_wave) {
            parent_ = std::min(parent_, m.from);  // deterministic tie-break
          }
          break;
        default:
          DASCHED_CHECK_MSG(false, "mst: unexpected tag in fragment phase");
      }
    }
    // Leaves of the convergecast must fold in their own candidate before
    // their timed send; do it as soon as neighbor fragments are known.
    if (l >= 2) merge_own_candidate();
  }

  // ---- Upcast phase. ----

  void upcast_phase_round(VirtualContext& ctx, std::uint32_t l) {
    const auto& plan = algo_.plan();
    const std::uint32_t l_child = 3 + plan.bfs_depth;   // child announcements
    const std::uint32_t l_up0 = 4 + plan.bfs_depth;     // first upcast slot
    const std::uint32_t dn_start = l_up0 + plan.upcast_rounds;

    absorb_upcast(ctx, l);

    if (l == 1) {
      send_all(ctx, {kTagFragId, frag_});
      return;
    }
    if (l == 2 && self_ == 0) {
      up_depth_ = 0;
      up_parent_ = self_;
      up_done_ = true;
      send_all(ctx, {kTagUpBfs});
      return;
    }
    // A crash can cut a node off from the BFS wave; it then has no parent to
    // report to and sits the upcast out.
    if (l == l_child && self_ != 0 && up_done_) {
      send_to(ctx, up_parent_, {kTagChild});
      return;
    }
    if (l >= l_up0 && l < dn_start && self_ != 0 && up_done_ && !done_sent_) {
      // Emit the heap minimum once it is safe: every child has finished or
      // has already delivered a weight >= it (child streams never decrease).
      bool emitted = false;
      while (!heap_.empty()) {
        const CandidateEdge c = heap_.top();
        bool safe = true;
        for (const auto& [ch, done] : child_state_) {
          if (done) continue;
          const auto it = child_frontier_.find(ch);
          if (it == child_frontier_.end() || it->second < c.w) {
            safe = false;
            break;
          }
        }
        if (!safe) break;
        heap_.pop();
        if (uf_.find(c.fu) == uf_.find(c.fv)) continue;  // filtered (cycle)
        uf_.unite(c.fu, c.fv);
        send_to(ctx, up_parent_, {kTagUpCand, c.w, c.u, c.v, pack_frags(c)});
        emitted = true;
        break;
      }
      if (!emitted && heap_.empty() && heap_seeded_) {
        bool all_done = true;
        for (const auto& [ch, done] : child_state_) all_done &= done;
        if (all_done) {
          send_to(ctx, up_parent_, {kTagUpDone});
          done_sent_ = true;
        }
      }
      return;
    }
    if (l >= dn_start) {
      if (l == dn_start && self_ == 0) {
        // Root: all candidates have arrived; run exact Kruskal. (Per-child
        // streams are sorted but their interleaving is not, so the root must
        // sort globally.)
        std::sort(root_cands_.begin(), root_cands_.end(),
                  [](const CandidateEdge& a, const CandidateEdge& b) {
                    return a.w < b.w;
                  });
        for (const auto& c : root_cands_) {
          if (uf_.find(c.fu) != uf_.find(c.fv)) {
            uf_.unite(c.fu, c.fv);
            chosen_.emplace_back(c.u, c.v);
          }
        }
        for (const auto& c : chosen_) down_queue_.push_back(c);
        for (const auto& [u, v] : chosen_) mark_if_incident(u, v);
      }
      if (!down_queue_.empty()) {
        const auto [u, v] = down_queue_.front();
        down_queue_.pop_front();
        send_all(ctx, {kTagChosen, u, v});
      }
      return;
    }
  }

  void absorb_upcast(VirtualContext& ctx, std::uint32_t l) {
    const auto& plan = algo_.plan();
    for (const auto& m : ctx.inbox()) {
      switch (m.payload.at(0)) {
        case kTagFragId:
          nbr_frag_[incident_index(m.from)] = m.payload.at(1);
          break;
        case kTagUpBfs:
          if (!up_done_) {
            up_done_ = true;
            up_parent_ = m.from;
            up_depth_ = l - 2;
            if (l < 2 + plan.bfs_depth) {
              for (std::size_t i = 0; i < incident_.size(); ++i) {
                if (incident_[i].neighbor != m.from) send(ctx, i, {kTagUpBfs});
              }
            }
          } else if (l == up_depth_ + 2) {
            up_parent_ = std::min(up_parent_, m.from);
          }
          break;
        case kTagChild:
          child_state_[m.from] = false;
          break;
        case kTagUpDone:
          child_state_[m.from] = true;
          break;
        case kTagUpCand: {
          CandidateEdge c;
          c.w = m.payload.at(1);
          c.u = static_cast<NodeId>(m.payload.at(2));
          c.v = static_cast<NodeId>(m.payload.at(3));
          c.fu = static_cast<NodeId>(m.payload.at(4) >> 32);
          c.fv = static_cast<NodeId>(m.payload.at(4) & 0xffffffffu);
          child_frontier_[m.from] = c.w;
          if (self_ == 0) {
            root_cands_.push_back(c);
          } else {
            heap_.push(c);
          }
          break;
        }
        case kTagChosen: {
          const NodeId u = static_cast<NodeId>(m.payload.at(1));
          const NodeId v = static_cast<NodeId>(m.payload.at(2));
          const std::uint64_t key = (std::uint64_t{u} << 32) | v;
          if (chosen_seen_.insert(key).second) {
            down_queue_.emplace_back(u, v);
            mark_if_incident(u, v);
          }
          break;
        }
        default:
          DASCHED_CHECK_MSG(false, "mst: unexpected tag in upcast phase");
      }
    }
    // Seed the candidate heap with own inter-fragment edges once neighbor
    // fragments are refreshed (round 2 of the upcast phase). Each edge is
    // injected once, by its smaller endpoint.
    if (l >= 2 && l != ~0u && !heap_seeded_) {
      heap_seeded_ = true;
      for (std::size_t i = 0; i < incident_.size(); ++i) {
        if (nbr_frag_[i] == kInvalidNode || nbr_frag_[i] == frag_) continue;
        if (self_ >= incident_[i].neighbor) continue;
        const CandidateEdge c{incident_[i].weight, self_, incident_[i].neighbor,
                              frag_, nbr_frag_[i]};
        if (self_ == 0) {
          root_cands_.push_back(c);
        } else {
          heap_.push(c);
        }
      }
    }
  }

  void mark_if_incident(NodeId u, NodeId v) {
    if (self_ != u && self_ != v) return;
    const NodeId other = (self_ == u) ? v : u;
    is_mst_edge_[incident_index(other)] = true;
  }

  const PipelineMstAlgorithm& algo_;
  NodeId self_;
  std::vector<Incident> incident_;
  std::vector<NodeId> nbr_frag_;
  std::vector<bool> is_frag_edge_;
  std::vector<bool> is_mst_edge_;

  // Fragment-phase state.
  std::vector<std::uint32_t> phase_start_;
  std::uint32_t upcast_start_ = 0;
  std::size_t phase_cursor_ = 0;
  NodeId frag_;
  NodeId parent_ = kInvalidNode;
  std::uint32_t depth_ = 0;
  CandidateEdge best_cand_;
  bool own_done_ = false;
  bool decision_seen_ = false;
  NodeId flood_best_ = kInvalidNode;
  std::uint64_t flood_sent_ = kNoEdge;
  bool wave_done_ = false;

  // Upcast-phase state.
  bool up_done_ = false;
  bool heap_seeded_ = false;
  bool done_sent_ = false;
  NodeId up_parent_ = kInvalidNode;
  std::uint32_t up_depth_ = 0;
  std::map<NodeId, bool> child_state_;          // child -> done?
  std::map<NodeId, std::uint64_t> child_frontier_;  // child -> last weight
  std::priority_queue<CandidateEdge, std::vector<CandidateEdge>,
                      std::greater<CandidateEdge>>
      heap_;
  SparseUnionFind uf_;
  std::vector<CandidateEdge> root_cands_;  // root only
  std::vector<std::pair<NodeId, NodeId>> chosen_;
  std::deque<std::pair<NodeId, NodeId>> down_queue_;
  std::set<std::uint64_t> chosen_seen_;
};

}  // namespace

PipelineMstAlgorithm::PipelineMstAlgorithm(const Graph& g,
                                           std::vector<std::uint64_t> weights,
                                           std::uint32_t target_fragments,
                                           std::uint64_t base_seed)
    : DistributedAlgorithm(base_seed),
      graph_(&g),
      weights_(std::move(weights)),
      target_fragments_(target_fragments),
      plan_(plan_mst(g, weights_, target_fragments)) {}

NodeProgram& PipelineMstAlgorithm::construct_program(NodeId node, ProgramArena& arena) const {
  return arena.make<PipelineMstProgram>(*this, node);
}

}  // namespace dasched
