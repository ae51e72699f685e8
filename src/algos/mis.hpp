// Luby's Maximal Independent Set -- the paper's *non*-Bellagio example.
//
// Appendix A: the Bellagio wrapper applies to algorithms where each node
// outputs one canonical value in most executions; "a classical distributed
// problem for which obtaining a fast (polylogarithmic rounds) Bellagio
// algorithm seems hard is the Maximal Independent Set problem". Luby's
// algorithm is correct for every seed but different seeds yield *different*
// maximal independent sets -- so gluing per-cluster executions (each with its
// own seed) produces locally-valid but globally-inconsistent outputs:
// adjacent nodes can both claim membership. test/bench code measures exactly
// those conflicts as the negative control for the wrapper.
//
// Implementation: classic synchronous Luby. In each phase (2 rounds):
//   round A: every undecided node draws a random priority and sends it to
//            its neighbors (decided nodes are silent);
//   round B: a node that beat every priority it received joins the MIS and
//            announces it; neighbors of a joiner become decided non-members.
// The per-node randomness is either private (standalone Luby) or derived
// from a provided seed (the "shared randomness" variant the wrapper feeds
// per-cluster seeds into).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"

namespace dasched {

class LubyMisAlgorithm final : public DistributedAlgorithm {
 public:
  /// `phases` Luby phases (2 rounds each); Theta(log n) phases suffice
  /// w.h.p. `node_seeds[v]` drives node v's priorities; pass identical seeds
  /// everywhere for a shared-randomness run or per-cluster seeds under the
  /// Bellagio wrapper. An empty vector means private randomness: node v
  /// draws from node_rng(base_seed, v).
  LubyMisAlgorithm(std::uint32_t phases, std::vector<std::vector<std::uint64_t>> node_seeds,
                   std::uint64_t base_seed)
      : DistributedAlgorithm(base_seed), phases_(phases), node_seeds_(std::move(node_seeds)) {
    DASCHED_CHECK(phases >= 1);
  }

  std::string name() const override { return "luby-mis"; }
  std::uint32_t rounds() const override { return 2 * phases_; }
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
  /// Sound upper-bound envelope: a directed edge carries at most one priority
  /// announcement per phase (only undecided nodes send in round A) and at
  /// most one join announcement ever (a node joins once, then is silent), so
  /// its total load is <= phases + 1.
  StaticFootprint static_footprint() const override {
    // Widest message is the priority announcement {tag, priority}.
    return StaticFootprint::envelope(phases_ + 1, /*max_payload_words=*/2);
  }

  std::uint32_t phases() const { return phases_; }

  /// Output layout: {decided (0/1), in MIS (0/1)}.
  static constexpr std::size_t kOutDecided = 0;
  static constexpr std::size_t kOutInMis = 1;

 private:
  std::uint32_t phases_;
  std::vector<std::vector<std::uint64_t>> node_seeds_;
};

/// Oracle check: is `in_mis` (per node) an independent set that is maximal
/// among `decided` nodes? Returns {independence violations, maximality
/// violations} counting edges/nodes.
std::pair<std::uint64_t, std::uint64_t> check_mis(const Graph& g,
                                                  const std::vector<std::uint8_t>& decided,
                                                  const std::vector<std::uint8_t>& in_mis);

}  // namespace dasched
