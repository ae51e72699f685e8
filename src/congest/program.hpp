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
//
// Writing an algorithm
// --------------------
// An algorithm is a DistributedAlgorithm subclass plus a NodeProgram
// subclass. The executor builds one program per (algorithm, node) for every
// run, in a ProgramArena it owns and reuses across runs; the program pointer
// is all the executor keeps per (algorithm, node). Everything else a node
// knows -- its input and its private randomness -- is state of its program:
//
//   class CoinProgram final : public NodeProgram {
//    public:
//     explicit CoinProgram(Rng rng) : rng_(rng) {}
//     void on_round(VirtualContext& ctx) override {
//       coin_ = rng_() & 1;
//       for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {coin_});
//     }
//     void write_output(std::vector<std::uint64_t>& words) const override {
//       words.push_back(coin_);
//     }
//    private:
//     Rng rng_;  // this node's private randomness, fixed at construction
//     std::uint64_t coin_ = 0;
//   };
//
//   NodeProgram& CoinAlgorithm::construct_program(NodeId node,
//                                                 ProgramArena& arena) const {
//     return arena.make<CoinProgram>(node_rng(base_seed(), node));
//   }
//
// construct_program builds the node's program in place with arena.make<P>;
// the program lives until the run has collected its outputs. After on_finish,
// write_output appends the node's output words to the algorithm's flat output
// table (congest/node_outputs.hpp); a node that appends nothing has an empty
// output. A program may own heap members -- the arena runs its destructor --
// but one that allocates nothing keeps a warm run free of allocations.
// node_rng(base_seed(), v) is the one definition of node v's stream, so solo
// and scheduled executions (and the analyzer's replays) draw the same coins;
// a program that draws late may build it at its first draw instead.
//
// make_program and output() are the older heap-allocating pair. The base
// construct_program adopts make_program's result and the base write_output
// appends output(), so an algorithm that still overrides them runs
// unchanged; new algorithms override construct_program and write_output.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "congest/footprint.hpp"
#include "congest/message.hpp"
#include "congest/program_arena.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dasched {

/// Execution context handed to a program each round. Exposes only what a
/// CONGEST node may know: its id, n, its incident edges and its inbox (its
/// private randomness is program state; see node_rng). Concrete instances
/// are owned by the executor.
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

 private:
  friend class Executor;
  friend class ReferenceExecutor;  // the differential-test oracle (tests/)
  using SendFn = void (*)(void* sink, NodeId neighbor, const Payload& payload);

  /// A null send_fn marks on_finish, where send() aborts.
  VirtualContext(NodeId self, NodeId num_nodes, std::uint32_t vround, InboxView inbox,
                 std::span<const HalfEdge> neighbors, SendFn send_fn, void* sink)
      : self_(self), num_nodes_(num_nodes), vround_(vround), inbox_(inbox),
        neighbors_(neighbors), send_fn_(send_fn), sink_(sink) {}

  NodeId self_ = 0;
  NodeId num_nodes_ = 0;
  std::uint32_t vround_ = 0;
  InboxView inbox_;
  std::span<const HalfEdge> neighbors_;
  SendFn send_fn_ = nullptr;
  void* sink_ = nullptr;
};

/// Node v's private random stream under base seed `base_seed` -- the paper's
/// "each node samples its bits of randomness, thus fixing them" (Section 2).
/// Programs and the analyzer's replays both derive it here.
inline Rng node_rng(std::uint64_t base_seed, NodeId v) {
  return Rng(seed_combine(base_seed, v));
}

/// Per-node program: override on_round (rounds 1..T) and optionally
/// on_finish (receives the round-T inbox; may not send). write_output is
/// called once, after on_finish, on nodes that completed.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  virtual void on_round(VirtualContext& ctx) = 0;
  virtual void on_finish(VirtualContext& ctx) { (void)ctx; }
  /// Appends this node's output words to `words`, the algorithm's flat
  /// output table. The default appends output().
  virtual void write_output(std::vector<std::uint64_t>& words) const {
    const auto out = output();
    words.insert(words.end(), out.begin(), out.end());
  }
  /// Compatibility adapter read by the default write_output; new programs
  /// override write_output instead.
  virtual std::vector<std::uint64_t> output() const { return {}; }
};

/// An algorithm instance: a program factory plus its round budget T and the
/// base seed from which per-node private randomness is derived. Concrete
/// algorithms bake node inputs into the programs they construct.
class DistributedAlgorithm {
 public:
  virtual ~DistributedAlgorithm() = default;

  virtual std::string name() const = 0;

  /// T: the number of communication rounds when run alone -- this instance's
  /// contribution to `dilation`.
  virtual std::uint32_t rounds() const = 0;

  /// Builds node `node`'s program in `arena` (arena.make<P>(...)) and
  /// returns it. The executor calls this once per node per run. The default
  /// adopts make_program(node).
  virtual NodeProgram& construct_program(NodeId node, ProgramArena& arena) const {
    return arena.adopt(make_program(node));
  }

  /// Compatibility adapter for the default construct_program: a heap-built
  /// program. Overriding neither hook is a contract failure.
  virtual std::unique_ptr<NodeProgram> make_program(NodeId node) const {
    (void)node;
    DASCHED_CHECK_MSG(false, "algorithm overrides neither construct_program nor make_program");
    return nullptr;
  }

  /// Base seed of the nodes' private randomness: a randomized program draws
  /// from node_rng(base_seed(), v), so solo and scheduled executions are
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
