#ifndef PEP_ANALYSIS_PLAN_CHECK_HH
#define PEP_ANALYSIS_PLAN_CHECK_HH

/**
 * @file
 * Static instrumentation-plan checker: machine-checks the invariants
 * PEP's correctness rests on, per built plan (profile::PlanState: the
 * P-DAG, numbering, plan and placement of one method):
 *
 *  1. DAG well-formedness: structurally valid and acyclic.
 *  2. Numbering soundness: at every DAG node the outgoing edge values
 *     carve [0, numPaths(node)) into disjoint, exhaustive intervals
 *     [val(e), val(e) + numPaths(dst(e))). By induction this proves
 *     every Entry->Exit path gets a *unique* id and the ids are *dense*
 *     in [0, totalPaths) — Ball-Larus's theorem, checked instance-wise.
 *  3. Overflow safety: totalPaths stays under kMaxPaths and no partial
 *     register sum can exceed totalPaths - 1, so the u64 path register
 *     cannot wrap under Direct placement.
 *  4. Plan consistency: edge increments equal the numbering's edge
 *     values (Direct) or the spanning placement's chord increments
 *     (SpanningTree); end/restart pairs sit exactly at loop headers
 *     (HeaderSplit) or truncated back edges (BackEdgeTruncate) and
 *     carry the dummy edges' values; numInstrumentedEdges matches.
 *  5. Chord-only placement (SpanningTree): spanning-tree edges carry no
 *     increment, the tree is acyclic, and it spans every live node.
 *  6. Smart-numbering cost (scheme Smart): the hottest outgoing edge of
 *     every DAG node has value 0, i.e. hot edges cost nothing.
 *  7. Bounded semantic proof: when totalPaths <= kSimulateLimit, every
 *     Entry->Exit DAG path is enumerated independently of the greedy
 *     reconstructor; replaying the *plan's* register actions over each
 *     path must reproduce the path's Ball-Larus number, and the numbers
 *     must cover [0, totalPaths) exactly. A method over the budget
 *     gets a "semantic enumeration skipped" note instead.
 *  8. Edge-table size: flatEdgeActions has one action per edge of the
 *     CFG's flat edge numbering (MethodCfg::flatEdgeId), so the lookups
 *     of checks 4 and 7 — and of both engines — stay in the table.
 *
 * 10. k-path id-space audit (checkKPathScheme, docs/KBLPP.md): a
 *     version's KPathScheme must be the arithmetically exact id space
 *     over its plan — base equals the enabled plan's totalPaths, the
 *     length offsets are precise prefix sums of base^l, kEffective is
 *     the *maximal* length fitting under the id cap (never less, so no
 *     silent window shrinkage), length-1 ids coincide with raw
 *     Ball-Larus numbers (the k=1 degeneracy guarantee), and
 *     encode/decode round-trip at the id-space corners.
 * 11. Cloned-body origin audit (checkClonedBody, docs/OPT.md): a
 *     version whose body the path-cloning pass synthesized must fold
 *     exactly onto the original CFG — every Cond/Switch block carries
 *     a valid BlockOrigin naming an original block of the same
 *     terminator kind and successor arity (so per-index counter
 *     sharing is well-defined), only synthesized glue Gotos may lack
 *     an origin, and the rootPcMap is the identity over the original
 *     code region (the OSR contract for clones). Combined with checks
 *     1-10 over the synthesized CFG's own plan, this validates
 *     cloned-CFG instrumentation end to end.
 *
 * Checks 9 (template-stream fidelity) and 12 (fused-stream
 * composition) became part of the one template-stream proof
 * (analysis/verify/stream_proof.hh); their numbers are retired, not
 * reused.
 *
 * All violations are reported as diagnostics (pass "plan-check"), not
 * panics, so a lint run can show every broken invariant at once.
 */

#include <cstdint>
#include <string>

#include "analysis/diagnostics.hh"
#include "bytecode/cfg_builder.hh"
#include "profile/instr_plan.hh"
#include "profile/kpath.hh"
#include "profile/plan_state.hh"

namespace pep::vm {
struct InlinedBody;
}

namespace pep::analysis {

/** Path-enumeration budget of the semantic proof (check 7). */
inline constexpr std::uint64_t kSimulateLimit = 4096;

/**
 * Run every applicable check on `state`, a plan built for `cfg`;
 * append findings to `diagnostics` under `method_name`. Check 6
 * re-derives the DAG frequencies from `freq_profile`, the profile the
 * plan was numbered with (nullptr: none). Returns true if no *errors*
 * were added (warnings/notes allowed).
 */
bool checkInstrumentationPlan(
    const bytecode::MethodCfg &cfg, const profile::PlanState &state,
    const std::string &method_name, DiagnosticList &diagnostics,
    const profile::MethodEdgeProfile *freq_profile = nullptr);

/** Everything the k-path id-space audit inspects (check 10). */
struct KPathCheckInput
{
    const profile::InstrumentationPlan *plan = nullptr;
    const profile::KPathScheme *kpath = nullptr;

    /** The window length the profiler was configured with; kEffective
     *  may be lower only when forced by the id cap. */
    std::uint32_t kRequested = 1;

    /** Method name used in diagnostics. */
    std::string methodName;
};

/**
 * Check 10: audit one version's k-path id space against its plan
 * (docs/KBLPP.md). Returns true if no errors were added.
 */
bool checkKPathScheme(const KPathCheckInput &input,
                      DiagnosticList &diagnostics);

/** Everything the cloned-body audit inspects (check 11). */
struct CloneCheckInput
{
    /** The method the cloned version belongs to. */
    bytecode::MethodId rootMethod = 0;

    /** That method's original CFG. */
    const bytecode::MethodCfg *originalCfg = nullptr;

    /** The synthesized body the version executes. */
    const vm::InlinedBody *body = nullptr;

    /** Method name used in diagnostics. */
    std::string methodName;
};

/**
 * Check 11: audit a clone-synthesized body's origin records against
 * the original CFG (docs/OPT.md). Returns true if no errors were
 * added.
 */
bool checkClonedBody(const CloneCheckInput &input,
                     DiagnosticList &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_PLAN_CHECK_HH
