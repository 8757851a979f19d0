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
 *    every installed compiled version it proves the template stream
 *    the threaded engine executes — the cached one, or under the
 *    switch engine the one translation would produce under the
 *    machine's fusion selection — against the *installed* state,
 *    baked layouts and the version's inline path plan included (the
 *    inlined body's code when the version has one), then audits every
 *    clone-synthesized body (plan-checker check 11). Realizability of
 *    recorded profiles is checked
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
