#ifndef PEP_ANALYSIS_VERIFY_VERIFY_HH
#define PEP_ANALYSIS_VERIFY_VERIFY_HH

/**
 * @file
 * Driver for the pep-verify passes (docs/ANALYSIS.md):
 *
 *  1. the template-stream proof (verify/stream_proof.hh)
 *  2. profile realizability (verify/realizability.hh)
 *
 * The static half runs inside lintProgram (analysis/lint.hh), which
 * proves every method's canonical full-opt translation under every
 * fusion selection. This header holds the live half:
 *
 *  - verifyMachine: inspects a live VM after (or during) a run. For
 *    every installed compiled version it translates the version under
 *    the machine's fusion selection (using the inlined body's code
 *    when the version has one) and proves the stream against the
 *    *installed* state — baked layouts included — then audits every
 *    clone-synthesized body (plan-checker check 11). Installed
 *    versions never change, so a stream cached at install time is the
 *    stream proved here. Realizability of recorded profiles is checked
 *    by testing::auditRun (testing/differ.hh), which owns the
 *    profilers, since the analysis layer does not depend on the
 *    profiler runtime.
 */

#include "analysis/diagnostics.hh"

namespace pep::vm {
class Machine;
}

namespace pep::analysis {

/**
 * Verify a live machine's installed versions: the stream proof per
 * version and the origin audit of every cloned body. Returns true if
 * no errors were added.
 */
bool verifyMachine(const vm::Machine &machine,
                   DiagnosticList &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_VERIFY_VERIFY_HH
