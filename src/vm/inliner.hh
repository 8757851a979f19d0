#ifndef PEP_VM_INLINER_HH
#define PEP_VM_INLINER_HH

/**
 * @file
 * Method inlining for the optimizing compiler. The paper's Section 4.3
 * describes its consequence for profiling: after inlining, multiple
 * IR-level branches may map to one bytecode-level branch, and PEP
 * updates the same taken/not-taken counters for all of them. This
 * module performs the transformation and produces exactly that map.
 *
 * Scope: leaf callees only (no calls of their own), bounded size,
 * non-recursive. A call site is replaced by
 *
 *   1. a prologue that pops the arguments into fresh local slots and
 *      zero-initializes the callee's remaining locals (the semantics
 *      of a fresh frame);
 *   2. the callee body with locals remapped, branch targets offset,
 *      and returns rewritten as gotos to the post-call join (an
 *      ireturn's value is already on the operand stack, which is the
 *      caller's expectation).
 *
 * The result is a self-contained InlinedBody: synthesized code, its
 * CFG and execution tables, a pc map from the root method's original
 * code (used by OSR to transfer a running frame), and per-block origin
 * records (which original method/block each branch came from) used for
 * layout decisions and bytecode-level branch counters.
 */

#include <memory>
#include <vector>

#include "bytecode/method.hh"
#include "vm/machine.hh"

namespace pep::vm {

/** Inlining policy knobs. */
struct InlineOptions
{
    /** Maximum callee code size (instructions) to inline. */
    std::uint32_t maxCalleeSize = 120;

    /** Maximum call sites inlined per method. */
    std::uint32_t maxSites = 8;
};

/** Where an inlined-code block came from. */
struct BlockOrigin
{
    /** Original method; kInvalidMethod for synthesized code. */
    bytecode::MethodId method = kInvalidOriginMethod;

    /** Block in the original method's CFG. */
    cfg::BlockId block = cfg::kInvalidBlock;

    static constexpr bytecode::MethodId kInvalidOriginMethod =
        static_cast<bytecode::MethodId>(-1);

    bool
    valid() const
    {
        return method != kInvalidOriginMethod;
    }
};

/** A compiled method body with calls inlined. */
struct InlinedBody
{
    /** The synthesized method (same name/signature as the root). */
    bytecode::Method method;

    /** CFG and execution tables for the synthesized code. */
    MethodInfo info;

    /** Per synthesized-CFG block: original method/block (valid for
     *  blocks whose terminator instruction came from original code). */
    std::vector<BlockOrigin> blockOrigin;

    /** Map from root-method pc to synthesized pc (for every original
     *  root instruction that survived; the replaced Invoke maps to the
     *  start of its splice). Used by OSR to transfer frames. */
    std::vector<bytecode::Pc> rootPcMap;

    /** Number of call sites inlined. */
    std::uint32_t inlinedSites = 0;
};

/**
 * Add `count` crossings of `edge` — an edge of the CFG a version of
 * `method` executes — to the bytecode-level tables `edges`. A version
 * running a synthesized body (`inlined`, from inlining or cloning)
 * counts only its Cond/Switch edges, through their BlockOrigin; its
 * other edges have no bytecode identity. The interpreter's ground
 * truth, PEP's edge profile and core::edgeProfileFromPaths all count
 * this way.
 */
inline void
foldEdge(profile::EdgeProfileSet &edges, bytecode::MethodId method,
         const InlinedBody *inlined, cfg::EdgeRef edge,
         std::uint64_t count = 1)
{
    if (!inlined) {
        edges.perMethod[method].addEdge(edge, count);
        return;
    }
    const auto kind = inlined->info.cfg.terminator[edge.src];
    if (kind != bytecode::TerminatorKind::Cond &&
        kind != bytecode::TerminatorKind::Switch)
        return;
    const BlockOrigin &origin = inlined->blockOrigin[edge.src];
    if (origin.valid()) {
        edges.perMethod[origin.method].addEdge(
            cfg::EdgeRef{origin.block, edge.index}, count);
    }
}

/**
 * Inline eligible call sites of `root`. Returns nullptr when nothing
 * was inlined (no eligible sites). The result verifies against the
 * program.
 */
std::unique_ptr<InlinedBody>
inlineLeafCalls(const bytecode::Program &program,
                bytecode::MethodId root, const InlineOptions &options);

} // namespace pep::vm

#endif // PEP_VM_INLINER_HH
