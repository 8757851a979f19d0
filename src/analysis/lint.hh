#ifndef PEP_ANALYSIS_LINT_HH
#define PEP_ANALYSIS_LINT_HH

/**
 * @file
 * The full static check of one program, shared by pep-verify's static
 * phase and the test suite:
 *
 *  1. bytecode verification (multi-diagnostic), reported under pass
 *     "verify"; if it finds errors the CFG-based passes are skipped
 *     (the CFG builder requires verified code);
 *  2. per-method dataflow lints: dead stores (liveness), unreachable
 *     code, abstract stack-depth/constant findings;
 *  3. instrumentation-plan checking: for every method, the P-DAG,
 *     numbering, and plan are built exactly as the profiling pipeline
 *     would and statically checked — both DAG modes, Direct and
 *     spanning-tree placement, Ball-Larus and smart numbering — and
 *     the method is translated for the threaded execution engine
 *     under every fusion selection and each template stream proved
 *     (analysis/verify/stream_proof.hh, docs/ENGINE.md).
 */

#include "analysis/diagnostics.hh"
#include "bytecode/method.hh"

namespace pep::analysis {

/**
 * Lint one program. The program is mutated only the way verification
 * mutates it (maxStack is filled in).
 */
DiagnosticList lintProgram(bytecode::Program &program);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_LINT_HH
