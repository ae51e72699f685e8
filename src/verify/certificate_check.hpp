// Certificate-vs-execution cross-check: joins a static PatternCertificate
// (src/analysis) against the solo run it claims to describe.
//
// This is the closed loop that makes static certificates trustworthy inputs
// for admission: for an *exact* certificate every (round, directed-edge)
// cell and every per-node output must match the executed solo run
// bit-for-bit (any difference is an error finding); for an *envelope* or
// *fallback* certificate the executed run must stay within the certified
// bounds (per-cell, per-edge, congestion, totals, last round) -- a sound
// bound can be loose, never violated. Tests run this check for every
// algorithm family across the graph suite; the dasched_analyze CLI exposes
// it as --cross-check.
//
// Findings reuse the verifier's Report machinery with the certificate.*
// codes from invariants.hpp; `alg_index` seeds Location::alg so service-style
// gates can attribute failures to the offending job.
#pragma once

#include "analysis/certificate.hpp"
#include "congest/simulator.hpp"
#include "verify/findings.hpp"
#include "verify/invariants.hpp"

namespace dasched::verify {

/// Appends certificate findings for one (certificate, solo run) pair to
/// `report`. Returns true when no error finding was added.
bool check_certificate(const analysis::PatternCertificate& cert, const SoloRunResult& solo,
                       Report& report, std::int64_t alg_index = -1);

}  // namespace dasched::verify
