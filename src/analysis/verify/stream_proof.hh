#ifndef PEP_ANALYSIS_VERIFY_STREAM_PROOF_HH
#define PEP_ANALYSIS_VERIFY_STREAM_PROOF_HH

/**
 * @file
 * The template-stream proof (docs/ANALYSIS.md): pass 1 of pep-verify,
 * and the only static check of the threaded engine's template streams
 * (vm/decoded_method.hh). The switch interpreter executes bytecode and
 * consults the installed CompiledMethod live; the threaded engine
 * executes the version's pre-decoded stream with layouts, flat-edge
 * bases, header flags, segment charges, fused superinstructions and
 * straightened traces baked in at translation time. The differ's
 * check 7 proves the two byte-identical *dynamically*, per run; this
 * proof shows it *statically*, for all inputs, by comparing the
 * stream with the bytecode pc by pc and block by block:
 *
 *  - shape: pcToTemplate covers the code and stays in the stream, and
 *    every template names a code block;
 *  - edge bases: every template carries its block's base in the
 *    CFG's flat edge numbering (MethodCfg::edgeBase), the ids every
 *    plan's flatEdgeActions are indexed by;
 *  - per pc: the template a pc maps to re-encodes that instruction
 *    (opcode, or a fused/guard top covering it), its block and the
 *    version's branch layout;
 *  - fusion: synthetic tops appear only under the fusion selection
 *    that produces them; the trace table is exactly what selectTraces
 *    derives from (code, layout, fuse); every fused template is the
 *    fusion-menu match at its pc, covers exactly its constituent pcs
 *    inside one segment and burns in their operands; every guard is
 *    the branch at an interior predicted-fall-through trace exit;
 *  - cycle charges and instruction counts: the per-instruction scaled
 *    costs the switch engine charges over a block equal the folded
 *    segment sums on the block's templates; inside a trace the head
 *    carries the chain's total, interiors carry zero, guards refund
 *    exactly the unexecuted suffix and interior fall-through ends are
 *    TraceFall templates;
 *  - profile-counter effects: every block exit fires the same CFG
 *    edge (src block, successor index) at the same dense flat id
 *    (MethodCfg::flatEdgeId) and lands on the target pc's template
 *    and block, so every profiler's flatEdgeActions dispatch is
 *    identical under both engines; the stream was translated against
 *    the version's inline path plan, and every exit's path-work bit is
 *    set iff that plan does register work on the edge — a clear bit
 *    skips the register, so a wrong one drops or adds an increment —
 *    while a stream without a plan carries no bit at all;
 *  - yieldpoint/header placement: an exit transfers into a
 *    loop-header leader pc iff the template carries the header flag,
 *    so onLoopHeader hooks and LoopHeader yieldpoints fire
 *    identically;
 *  - baseline edge counters: the one-time-instrumentation flag on
 *    Cond/Switch terminators equals CompiledMethod::baselineEdgeInstr.
 *
 * Method entry (the {entry, 0} edge and entry-header events) is
 * shared pushFrame code outside the template stream, identical by
 * construction. Back-edge yieldpoints fire in a helper shared by both
 * engines keyed only on the CFG EdgeRef, so edge equality covers them.
 *
 * Findings are reported under pass "engine-equiv" with a per-property
 * check id, capped per category so a broken stream stays readable.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "analysis/diagnostics.hh"
#include "bytecode/method.hh"
#include "vm/engine.hh"

namespace pep::bytecode {
struct MethodCfg;
}

namespace pep::vm {
class CompiledMethod;
struct DecodedMethod;
struct MethodInfo;
struct PathPlan;
}

namespace pep::analysis {

/** One translated stream and what it was translated from. `code` and
 *  `info` must be the code the version executes (the inlined body's
 *  when the version has one). */
struct TemplateCheckInput
{
    const bytecode::Method *code = nullptr;
    const vm::MethodInfo *info = nullptr;
    const vm::CompiledMethod *cm = nullptr;
    const vm::DecodedMethod *decoded = nullptr;

    /** Method name used in diagnostics. */
    std::string methodName;

    /** Compiled version number, when proving an installed version. */
    std::optional<std::uint32_t> version;

    /** The plan the stream must be translated against: the machine's
     *  inline path profiler's plan for the version (Machine::
     *  inlinePlanFor), or null when it has none. */
    const vm::PathPlan *plan = nullptr;
};

/**
 * Prove one template stream equivalent to its bytecode (see file
 * comment). Returns true if no errors were added.
 */
bool checkTemplateStream(const TemplateCheckInput &input,
                         DiagnosticList &diagnostics);

/** The version the static tools prove: full-opt costs, no layout
 *  information, no baseline instrumentation. */
vm::CompiledMethod canonicalVersion(const bytecode::MethodCfg &cfg);

/** Every fusion selection (the whole PEP_FUSE matrix). */
inline constexpr vm::FuseOptions kEveryFuseOption[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

/**
 * Translate a version, without a plan, under each selection in `fuses`
 * and prove every stream — lintProgram's entry point. A null `cm`
 * stands for the canonical version the static tools prove: full-opt
 * costs, no layout information, no baseline instrumentation (under
 * that all-fall-through layout `traces` straightens real chains).
 * Returns true if no errors were added.
 */
bool checkTemplateStreams(const bytecode::Method &code,
                          const vm::MethodInfo &info,
                          const vm::CompiledMethod *cm,
                          std::span<const vm::FuseOptions> fuses,
                          const std::string &method_name,
                          std::optional<std::uint32_t> version,
                          DiagnosticList &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_VERIFY_STREAM_PROOF_HH
