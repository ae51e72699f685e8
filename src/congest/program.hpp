// The black-box algorithm interface (Section 2 of the paper).
//
// A distributed algorithm is, per node, a deterministic state machine driven
// by (the node's input, its private randomness fixed at start, and the
// messages it has received). This matches the paper's format: "when this
// algorithm is run alone, in each round each node knows what to send in the
// next round", and nothing else is assumed -- in particular the communication
// pattern is NOT known a priori, and a node cannot tell whether its inbox for
// a round is complete. Schedulers run these programs without inspecting
// message content.
//
// Round convention
// ----------------
// A T-round algorithm sends messages during virtual rounds 1..T. Messages
// sent in round r are delivered at the start of round r+1 (they appear in the
// receiver's inbox when it executes round r+1). `on_finish` runs after round
// T with the round-T messages; this is where outputs are finalized. Thus a
// node's output depends on initial states within its T-hop ball -- the
// "dilation-neighborhood" of the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "congest/footprint.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dasched {

/// Execution context handed to a program each round. Exposes only what a
/// CONGEST node may know: its id, n, its incident edges, its inbox, and its
/// private randomness. Concrete instances are owned by the executor.
class VirtualContext {
 public:
  NodeId self() const { return self_; }
  NodeId num_nodes() const { return num_nodes_; }

  /// Virtual round being executed, 1..T (T+1 during on_finish).
  std::uint32_t vround() const { return vround_; }

  /// Messages sent to this node in round vround()-1. The view borrows the
  /// executor's compact delivery lanes; iteration yields MsgView values
  /// (`m.from`, `m.payload`).
  InboxView inbox() const { return inbox_; }

  /// Incident edges (neighbor id + undirected edge id), sorted by neighbor.
  std::span<const HalfEdge> neighbors() const { return neighbors_; }
  std::uint32_t degree() const { return static_cast<std::uint32_t>(neighbors_.size()); }

  /// Sends one message to a neighbor, delivered at round vround()+1.
  /// At most one message per neighbor per round (CONGEST bandwidth);
  /// disallowed during on_finish.
  void send(NodeId neighbor, const Payload& payload) {
    DASCHED_CHECK_MSG(send_fn_ != nullptr, "send() called during on_finish");
    send_fn_(sink_, neighbor, payload);
  }

  /// Private per-node randomness, deterministic per (algorithm, node).
  Rng& rng() { return *rng_; }

 private:
  friend class Executor;
  friend class ReferenceExecutor;  // the differential-test oracle (tests/)
  using SendFn = void (*)(void* sink, NodeId neighbor, const Payload& payload);

  NodeId self_ = 0;
  NodeId num_nodes_ = 0;
  std::uint32_t vround_ = 0;
  InboxView inbox_;
  std::span<const HalfEdge> neighbors_;
  SendFn send_fn_ = nullptr;
  void* sink_ = nullptr;
  Rng* rng_ = nullptr;
};

/// Per-node program: override on_round (rounds 1..T) and optionally
/// on_finish (receives the round-T inbox; may not send). output() is read
/// after on_finish.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  virtual void on_round(VirtualContext& ctx) = 0;
  virtual void on_finish(VirtualContext& ctx) { (void)ctx; }
  virtual std::vector<std::uint64_t> output() const { return {}; }
};

/// An algorithm instance: a program factory plus its round budget T and the
/// base seed from which per-node private randomness is derived. Concrete
/// algorithms bake node inputs into the programs they create.
class DistributedAlgorithm {
 public:
  virtual ~DistributedAlgorithm() = default;

  virtual std::string name() const = 0;

  /// T: the number of communication rounds when run alone -- this instance's
  /// contribution to `dilation`.
  virtual std::uint32_t rounds() const = 0;

  virtual std::unique_ptr<NodeProgram> make_program(NodeId node) const = 0;

  /// Base seed; the executor derives node v's Rng as
  /// Rng(seed_combine(base_seed(), v)), making solo and scheduled executions
  /// byte-identical.
  std::uint64_t base_seed() const { return base_seed_; }

  /// Declarative footprint for the static pattern analyzer (src/analysis):
  /// what this algorithm's communication pattern looks like as a function of
  /// the graph, without executing it. The default is opaque -- the analyzer
  /// then assumes the CONGEST worst case (one message per directed edge per
  /// round for rounds() rounds). Override with an exact shape when the
  /// pattern is a pure function of (graph, parameters, base seed), or with a
  /// sound envelope for randomized algorithms. See congest/footprint.hpp.
  virtual StaticFootprint static_footprint() const { return StaticFootprint::opaque(); }

 protected:
  explicit DistributedAlgorithm(std::uint64_t base_seed) : base_seed_(base_seed) {}

 private:
  std::uint64_t base_seed_;
};

}  // namespace dasched
