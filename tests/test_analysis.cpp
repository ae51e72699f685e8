// Static pattern analysis (src/analysis): exact certificates must match
// solo-executed patterns cell-for-cell (and output-for-output) for every
// deterministic algorithm family across the graph suite, and envelope /
// fallback certificates must soundly dominate every randomized or opaque
// run. The cross-check itself (verify/certificate_check.hpp) is both the
// assertion vehicle and a test subject: corrupted certificates must fire the
// certificate.* findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "algos/aggregate.hpp"
#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "algos/distinct_elements.hpp"
#include "algos/gossip.hpp"
#include "algos/mis.hpp"
#include "algos/mst.hpp"
#include "algos/path_routing.hpp"
#include "analysis/analyzer.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "sched/problem.hpp"
#include "sched/workloads.hpp"
#include "util/fingerprint.hpp"
#include "util/load_cells.hpp"
#include "util/rng.hpp"
#include "verify/certificate_check.hpp"

namespace dasched {
namespace {

std::vector<std::pair<std::string, Graph>> graph_suite() {
  Rng rng(7);
  std::vector<std::pair<std::string, Graph>> suite;
  suite.emplace_back("single-edge", make_path(2));
  suite.emplace_back("path", make_path(9));
  suite.emplace_back("cycle", make_cycle(8));
  suite.emplace_back("star", make_star(7));
  suite.emplace_back("grid", make_grid(4, 5));
  suite.emplace_back("tree", make_binary_tree(15));
  suite.emplace_back("gnp", make_gnp_connected(40, 0.15, rng));
  suite.emplace_back("lollipop", make_lollipop(14, 6));
  return suite;
}

/// `pattern` plus one message per cell_key in `keys` (in any order).
CommunicationPattern with_messages(const CommunicationPattern& pattern,
                                   std::vector<std::uint64_t> keys) {
  for (const LoadCell& cell : pattern.cells()) {
    keys.insert(keys.end(), cell.load, cell_key(cell.big_round, cell.edge));
  }
  std::vector<LoadCell> cells;
  count_cells(keys, cells);
  return CommunicationPattern(pattern.num_directed_edges(), std::move(cells));
}

/// `outputs` with the first word of node v's output flipped.
NodeOutputs with_flipped_word(const NodeOutputs& outputs, std::size_t v) {
  NodeOutputs flipped;
  for (std::size_t u = 0; u < outputs.size(); ++u) {
    std::vector<std::uint64_t> words(outputs[u].begin(), outputs[u].end());
    if (u == v) words.at(0) ^= 1;
    flipped.push_back(OutputView(words));
  }
  return flipped;
}

/// One (certificate, solo run) pair cross-checked into a fresh report.
verify::Report certificate_report(const analysis::PatternCertificate& cert,
                                  const SoloRunResult& solo,
                                  const verify::VerifyOptions& opts = {}) {
  verify::Report report;
  report.max_findings_per_code = opts.max_findings_per_code;
  verify::check_certificate(cert, solo, report);
  return report;
}

/// Certificates either exactly match or soundly bound the solo run; the
/// cross-check must come back clean either way.
void expect_certified(const Graph& g, const DistributedAlgorithm& alg,
                      analysis::CertificateKind expected_kind) {
  const auto cert = analysis::analyze(g, alg);
  EXPECT_EQ(cert.kind, expected_kind) << alg.name();
  EXPECT_EQ(cert.dilation, alg.rounds());

  const auto solo = solo_run(g, alg);
  const auto report = certificate_report(cert, solo);
  EXPECT_TRUE(report.ok()) << alg.name() << ": " << report.errors() << " errors";
  EXPECT_TRUE(report.has(verify::kCodeCertificateSummary));

  if (expected_kind == analysis::CertificateKind::kExact) {
    // Belt and braces beyond the cross-check: headline scalars are exact.
    EXPECT_EQ(cert.total_messages, solo.pattern.total_messages());
    EXPECT_EQ(cert.last_message_round, solo.pattern.last_message_round());
    EXPECT_EQ(cert.congestion, solo.pattern.max_edge_load());
    ASSERT_TRUE(cert.has_outputs);
    EXPECT_EQ(cert.outputs, solo.outputs);
  } else {
    EXPECT_GE(cert.congestion, solo.pattern.max_edge_load());
    EXPECT_GE(cert.total_messages, solo.pattern.total_messages());
    EXPECT_FALSE(cert.has_outputs);
  }
}

TEST(Analysis, BroadcastExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t hops : {1u, 2u, 5u}) {
      expect_certified(g, BroadcastAlgorithm(0, hops, 0xabcd, 11),
                       analysis::CertificateKind::kExact);
    }
    expect_certified(g, BroadcastAlgorithm(g.num_nodes() - 1, 3, 1, 5),
                     analysis::CertificateKind::kExact);
  }
}

TEST(Analysis, BfsExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t hops : {1u, 3u, 7u}) {
      expect_certified(g, BfsAlgorithm(g.num_nodes() / 2, hops, 3),
                       analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, AggregateExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t radius : {1u, 2u, 4u}) {
      expect_certified(g, AggregateAlgorithm(0, radius, 77),
                       analysis::CertificateKind::kExact);
      expect_certified(g, AggregateAlgorithm(g.num_nodes() - 1, radius, 1234),
                       analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, GossipExactAcrossSuite) {
  // Randomized pattern, but the coins are fixed at start from (seed, node):
  // the central replay must reproduce the executed pushes exactly.
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint64_t seed : {1ull, 42ull, 999ull}) {
      expect_certified(g, GossipAlgorithm(0, 6, 0xfeed, seed),
                       analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, PathRoutingExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    Rng rng(13);
    for (auto& alg : make_random_routing_instance(g, 4, rng, 99)) {
      expect_certified(g, *alg, analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, MisEnvelopeIsSoundAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t phases : {1u, 3u, 5u}) {
      expect_certified(g, LubyMisAlgorithm(phases, {}, 17 + phases),
                       analysis::CertificateKind::kUpperBound);
    }
  }
}

TEST(Analysis, OpaqueFallbackIsSound) {
  const auto g = make_grid(4, 4);
  const auto weights = make_mst_weights(g, 5);
  expect_certified(g, PipelineMstAlgorithm(g, weights, 2, 21),
                   analysis::CertificateKind::kFallback);

  DistinctElementsParams params;
  params.radius = 2;
  params.iterations = 8;
  std::vector<std::uint64_t> values(g.num_nodes());
  std::vector<std::vector<std::uint64_t>> seeds(g.num_nodes(), {9ull});
  for (NodeId v = 0; v < g.num_nodes(); ++v) values[v] = splitmix64(v);
  expect_certified(g, DistinctElementsAlgorithm(g, params, values, seeds, 9),
                   analysis::CertificateKind::kFallback);
}

TEST(Analysis, ToSoloRoundTripsAsAdoptedProfile) {
  const auto g = make_grid(3, 4);
  const BroadcastAlgorithm alg(2, 4, 5, 31);
  const auto cert = analysis::analyze(g, alg);
  const SoloRunResult synth = cert.to_solo();
  const SoloRunResult executed = solo_run(g, alg);
  EXPECT_EQ(synth.outputs, executed.outputs);
  EXPECT_EQ(synth.pattern.total_messages(), executed.pattern.total_messages());
  EXPECT_EQ(synth.pattern.last_message_round(), executed.pattern.last_message_round());
  for (std::uint32_t d = 0; d < g.num_directed_edges(); ++d) {
    EXPECT_EQ(synth.pattern.edge_load(d), executed.pattern.edge_load(d));
  }
}

TEST(Analysis, CertifiedCongestionBoundDominatesExact) {
  const auto g = make_grid(4, 4);
  const auto problem = make_mixed_workload(g, 6, 3, 41);
  const std::uint32_t certified = problem->certified_congestion_bound();
  problem->run_solo();
  EXPECT_GE(certified, problem->congestion());
  // The mixed workload is all-exact (broadcast/bfs/aggregate): bound is tight.
  EXPECT_EQ(certified, problem->congestion());
  EXPECT_EQ(problem->analyze_static().size(), problem->size());
}

TEST(Analysis, CorruptedExactCertificateFiresCellAndOutputFindings) {
  const auto g = make_cycle(6);
  const BfsAlgorithm alg(0, 3, 7);
  auto cert = analysis::analyze(g, alg);
  const auto solo = solo_run(g, alg);

  // Shift one cell: drop nothing, add a phantom message in a quiet round.
  cert.pattern = with_messages(cert.pattern, {cell_key(cert.rounds, 0)});
  cert.outputs = with_flipped_word(cert.outputs, 1);
  const auto report = certificate_report(cert, solo);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeCertificateCellMismatch));
  EXPECT_TRUE(report.has(verify::kCodeCertificateOutputMismatch));
}

TEST(Analysis, ViolatedEnvelopeFiresBoundFindings) {
  const auto g = make_star(5);
  const LubyMisAlgorithm alg(3, {}, 23);
  auto cert = analysis::analyze(g, alg);
  const auto solo = solo_run(g, alg);
  // Shrink the envelope below reality: the run must now violate it.
  cert.per_edge_bound = 0;
  cert.per_cell_bound = 0;
  cert.total_messages = 0;
  const auto report = certificate_report(cert, solo);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeCertificateBoundViolation));
}

TEST(Analysis, DimensionMismatchIsTerminal) {
  const auto g = make_path(4);
  const auto other = make_path(6);
  const BroadcastAlgorithm alg(0, 2, 1, 3);
  const auto cert = analysis::analyze(g, alg);
  const auto solo = solo_run(other, BroadcastAlgorithm(0, 2, 1, 3));
  const auto report = certificate_report(cert, solo);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeCertificateDims));
  EXPECT_FALSE(report.has(verify::kCodeCertificateSummary));
}

TEST(Analysis, DisconnectedAndUnreachedNodesMatchExecution) {
  // A 1-hop broadcast on a long path: most nodes are unreached; the derived
  // outputs must match the executed "not received" outputs exactly.
  const auto g = make_path(12);
  expect_certified(g, BroadcastAlgorithm(0, 1, 9, 2), analysis::CertificateKind::kExact);
  expect_certified(g, BfsAlgorithm(11, 1, 2), analysis::CertificateKind::kExact);
  expect_certified(g, AggregateAlgorithm(5, 1, 8), analysis::CertificateKind::kExact);
}

// Digests of check_certificate reports -- severity totals, per-code counts,
// cells_compared and every recorded finding -- on exact, envelope and
// corrupted certificates over seeded problems, captured before the cell
// counts moved to util/load_cells. Findings are mixed in sorted order: the
// order within one round is the only thing the port may change (it is now
// (round, edge) order). Do not regenerate.
TEST(CertificateCheckGolden, ReportsMatchPinnedDigests) {
  const auto digest = [](const verify::Report& report) {
    Fingerprint fp;
    fp.mix(report.errors()).mix(report.warnings()).mix(report.infos());
    for (const char* code :
         {verify::kCodeCertificateDims, verify::kCodeCertificateCellMismatch,
          verify::kCodeCertificateOutputMismatch, verify::kCodeCertificateBoundViolation,
          verify::kCodeCertificateSummary}) {
      fp.mix(report.count(code));
    }
    std::vector<std::string> records;
    for (const auto& f : report.findings()) {
      std::string r = f.code + "|" + f.location.str() + "|" + f.message;
      for (const auto& [name, value] : f.metrics) {
        r += "|" + name + "=" + std::to_string(std::bit_cast<std::uint64_t>(value));
        if (name == "cells_compared") fp.mix(static_cast<std::uint64_t>(value));
      }
      records.push_back(std::move(r));
    }
    std::sort(records.begin(), records.end());
    for (const auto& r : records) fp.mix_bytes(r);
    return fp.digest();
  };
  verify::VerifyOptions opts;
  opts.max_findings_per_code = ~std::size_t{0};
  Rng rng(31);
  const auto gnp = make_gnp_connected(40, 0.15, rng);
  const auto grid = make_grid(4, 5);
  const auto star = make_star(7);

  std::vector<std::pair<std::string, std::uint64_t>> got;
  const auto check = [&](const std::string& name, const analysis::PatternCertificate& cert,
                         const SoloRunResult& solo) {
    got.emplace_back(name, digest(certificate_report(cert, solo, opts)));
  };
  {
    const BfsAlgorithm alg(7, 5, 3);
    check("exact_bfs_grid", analysis::analyze(grid, alg), solo_run(grid, alg));
  }
  {
    const GossipAlgorithm alg(0, 6, 0xfeed, 42);
    check("exact_gossip_gnp", analysis::analyze(gnp, alg), solo_run(gnp, alg));
  }
  {
    const LubyMisAlgorithm alg(3, {}, 20);
    check("envelope_mis_star", analysis::analyze(star, alg), solo_run(star, alg));
  }
  {
    const LubyMisAlgorithm alg(5, {}, 22);
    check("envelope_mis_gnp", analysis::analyze(gnp, alg), solo_run(gnp, alg));
  }
  {
    // Phantom cells added in descending edge order inside busy rounds,
    // on top of cells the run also uses, plus one flipped output.
    const BfsAlgorithm alg(7, 5, 3);
    auto cert = analysis::analyze(grid, alg);
    std::vector<std::uint64_t> phantom;
    for (std::uint32_t d = grid.num_directed_edges(); d-- > 0;) {
      if (d % 3 == 0) phantom.push_back(cell_key(2, d));
      if (d % 5 == 1) phantom.push_back(cell_key(3, d));
    }
    cert.pattern = with_messages(cert.pattern, std::move(phantom));
    cert.outputs = with_flipped_word(cert.outputs, 2);
    check("corrupt_exact_bfs_grid", cert, solo_run(grid, alg));
  }
  {
    const GossipAlgorithm alg(0, 6, 0xfeed, 42);
    auto cert = analysis::analyze(gnp, alg);
    std::vector<std::uint64_t> phantom;
    for (std::uint32_t d = gnp.num_directed_edges(); d-- > 0;) {
      if (d % 4 == 3) phantom.push_back(cell_key(4, d));
    }
    phantom.push_back(cell_key(cert.rounds, 0));
    cert.pattern = with_messages(cert.pattern, std::move(phantom));
    check("corrupt_exact_gossip_gnp", cert, solo_run(gnp, alg));
  }
  {
    // Every executed cell missing from the certificate, plus a few phantom
    // cells: one-sided cells on both sides of the join.
    const GossipAlgorithm alg(0, 6, 0xfeed, 42);
    auto cert = analysis::analyze(gnp, alg);
    cert.pattern = with_messages(CommunicationPattern(gnp.num_directed_edges(), {}),
                                 {cell_key(2, 5), cell_key(2, 1)});
    check("corrupt_exact_empty_gossip_gnp", cert, solo_run(gnp, alg));
  }
  {
    const LubyMisAlgorithm alg(5, {}, 22);
    auto cert = analysis::analyze(gnp, alg);
    cert.per_edge_bound = 1;
    cert.per_cell_bound = 0;
    cert.total_messages = 10;
    cert.last_message_round = 1;
    check("corrupt_envelope_mis_gnp", cert, solo_run(gnp, alg));
  }
  const std::uint64_t kGolden[] = {
      0xbdea3dc987aeb0f6ULL,  // exact_bfs_grid
      0xccb1c3fd31e3fddeULL,  // exact_gossip_gnp
      0xf55b96fc9496e190ULL,  // envelope_mis_star
      0x8de1401dea919f2eULL,  // envelope_mis_gnp
      0x6f236ba780c0c89eULL,  // corrupt_exact_bfs_grid
      0x1e792e720e1fc2ccULL,  // corrupt_exact_gossip_gnp
      0xf520512c44adc5f2ULL,  // corrupt_exact_empty_gossip_gnp
      0xefa4f0b83f87f253ULL,  // corrupt_envelope_mis_gnp
  };
  ASSERT_EQ(got.size(), std::size(kGolden));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, kGolden[i]) << got[i].first << ": " << std::hex << got[i].second;
  }
}

}  // namespace
}  // namespace dasched
