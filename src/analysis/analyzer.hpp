// Static pattern analysis: derive an algorithm's communication pattern --
// and from it its congestion/dilation certificate -- without executing it.
//
// analyze() interprets the algorithm's declarative StaticFootprint
// (congest/footprint.hpp) over the time-expanded graph G x [T]:
//
//   kFlood                BFS layering from the source; a node at distance q
//                         sends to all neighbors in round q+1 (iff q+1 <= T).
//   kThreePhaseAggregate  capped BFS layering plus the timed convergecast and
//                         the result flood, exactly as aggregate.cpp times
//                         them (depth q reports up in round 2h+1-q, floods
//                         the result in round 2h+2+q).
//   kGossipPush           central replay of the pushes: each informed node's
//                         per-round uniform pick is re-drawn from the same
//                         node_rng(base_seed, v) stream the node's program
//                         draws from, so the random pattern is exact.
//   kFixedPath            round r carries exactly path[r-1] -> path[r].
//   kEnvelope             sound per-cell / per-edge caps, no surface.
//   kOpaque               the CONGEST worst case: every directed edge, every
//                         round (the conservative whole-bandwidth fallback).
//
// For the exact shapes the certificate also carries the per-node outputs
// (the same derivations the central oracles in graph/algorithms.hpp enable),
// which is what lets the service admit cache-miss jobs without a solo run.
// The cross-check against executed patterns lives in
// verify/certificate_check.hpp; tests assert cell-for-cell equality for
// every exact shape across the graph suite.
#pragma once

#include "analysis/certificate.hpp"
#include "congest/program.hpp"
#include "graph/graph.hpp"

namespace dasched::analysis {

/// Derives `algorithm`'s certificate on `g` from its declared footprint.
/// Never constructs node programs and never executes anything.
PatternCertificate analyze(const Graph& g, const DistributedAlgorithm& algorithm);

}  // namespace dasched::analysis
