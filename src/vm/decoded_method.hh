#ifndef PEP_VM_DECODED_METHOD_HH
#define PEP_VM_DECODED_METHOD_HH

/**
 * @file
 * Pre-decoded template streams for the threaded execution engine
 * (docs/ENGINE.md). At install time each compiled version is translated
 * into a contiguous array of Templates: operands resolved, branch
 * targets turned into template indices, the version's branch layout and
 * the block's flat edge base (`MethodCfg::edgeBase`, the numbering
 * every plan's edge table uses) burned into block-boundary templates,
 * and per-op scaled costs folded into per-segment sums so straight-line
 * block bodies execute with zero profiling branches.
 *
 * A *segment* is a run of instructions charged as one unit: it starts
 * at a block-leader pc or immediately after an Invoke, and ends with
 * the block's terminator, an Invoke, or the block's fall-through end.
 * Cycles and the instruction counter are only observable at segment
 * boundaries (yieldpoints, hooks, and branch bookkeeping all fire
 * there), so charging the whole sum on the segment's first template is
 * indistinguishable from the switch engine's per-instruction charging —
 * and every park/resume pc the cooperative scheduler can produce is a
 * segment leader, so `pcToTemplate` round-trips frames exactly.
 *
 * On top of the plain per-opcode templates, translation can *fuse*
 * (FuseOptions, PEP_FUSE):
 *
 *  - `pairs`: common opcode pairs/triples collapse into one
 *    superinstruction template with burned-in operands (const+store,
 *    load+load+arith, load+cmp+branch, ...) — one dispatch instead of
 *    two or three. Every constituent pc still maps to the fused
 *    template in `pcToTemplate`, and fusion never crosses a segment
 *    boundary, so parks, OSR, and rebinds are unaffected.
 *
 *  - `traces`: runs of predicted-fall-through blocks (branch layout
 *    != 1, i.e. fall-through is the laid-out direction) straighten
 *    into a hot trace. The whole trace's cost/ninstr sum is prepaid on
 *    the head block's leader template (one add per trace); interior
 *    leaders carry zero. Each interior conditional branch becomes a
 *    *guard*: its taken ("mispredicted") exit refunds the unexecuted
 *    suffix sums — stashed in the guard's `swFirst`/`swCount` fields,
 *    which a conditional branch never uses — before the edge event can
 *    fire a back-edge yieldpoint, then transfers normally; its fall
 *    exit continues into the next trace block with no header, park, or
 *    yieldpoint checks (interior blocks are non-header single-
 *    predecessor blocks, so none can occur). Interior fall-through
 *    block ends become `kTopTraceFall`: the CFG edge event plus a
 *    direct template jump. Trace members never contain an Invoke, so
 *    no callee yieldpoint can observe the prepaid clock mid-trace.
 *
 * Fusion is a pure translation-time choice: the switch engine ignores
 * it and every observable stays byte-identical across the whole
 * PEP_ENGINE x PEP_FUSE matrix (differ check 7 and the template-stream
 * proof, analysis/verify/stream_proof.hh).
 *
 * Translation is a pure function of (code, tables, compiled version,
 * fuse options): it charges no simulated cycles and consults no
 * mutable VM state — the edge profile enters only through the
 * version's installed `branchLayout`. Installed versions never change
 * (a relayout compiles a new version), so a stream translated once
 * stays fresh for the version's lifetime.
 */

#include <cstdint>
#include <vector>

#include "bytecode/method.hh"
#include "cfg/graph.hh"
#include "vm/engine.hh"

namespace pep::vm {

class CompiledMethod;
struct MethodInfo;

/**
 * Threaded-engine opcodes. Values 0..kNumOpcodes-1 are exactly
 * bytecode::Opcode (so translation of plain ops is a cast); the
 * synthetic entries follow.
 */
constexpr std::uint8_t kTopFallEdge =
    static_cast<std::uint8_t>(bytecode::kNumOpcodes);

/** Trace-interior fall-through block end: edge event + direct jump
 *  (a FallEdge with the transfer checks proven away). */
constexpr std::uint8_t kTopTraceFall = kTopFallEdge + 1;

/** Trace guards: one top per conditional-branch opcode, split into the
 *  zero-compare family (Ifeq..Ifle) and the two-operand family
 *  (IfIcmpeq..IfIcmple), indexed by opcode offset within the family. */
constexpr std::uint8_t kTopGuardZeroBase = kTopTraceFall + 1;
constexpr std::uint8_t kTopGuardCmpBase = kTopGuardZeroBase + 6;

/** Fused pairs with burned-in operands (see Template field notes). */
constexpr std::uint8_t kTopConstStore = kTopGuardCmpBase + 6;
constexpr std::uint8_t kTopLoadStore = kTopConstStore + 1;
constexpr std::uint8_t kTopLoadLoad = kTopLoadStore + 1;

/** Fused arithmetic families: one top per Iadd..Ishr opcode, indexed
 *  by (op - Iadd). */
constexpr std::uint8_t kTopConstArithBase = kTopLoadLoad + 1;
constexpr std::uint8_t kTopLoadArithBase = kTopConstArithBase + 10;
constexpr std::uint8_t kTopLoadLoadArithBase = kTopLoadArithBase + 10;
constexpr std::uint8_t kTopLoadConstArithBase = kTopLoadLoadArithBase + 10;

/** Fused compare-and-branch families, indexed like the guards. */
constexpr std::uint8_t kTopLoadZeroBrBase = kTopLoadConstArithBase + 10;
constexpr std::uint8_t kTopLoadLoadCmpBrBase = kTopLoadZeroBrBase + 6;
constexpr std::uint8_t kTopLoadConstCmpBrBase = kTopLoadLoadCmpBrBase + 6;

/** Size of the threaded engine's dispatch table. */
constexpr std::size_t kNumTops = kTopLoadConstCmpBrBase + 6;

static_assert(kNumTops == 113, "dispatch table layout drifted");

/** Template flag bits. */
enum : std::uint8_t
{
    /** The instruction is the last of its block (Invoke only: its
     *  fall-through is a block-end CFG edge). */
    kTplEndsBlock = 1u << 0,

    /** The taken / fall-through target is a loop-header leader. */
    kTplTakenHeader = 1u << 1,
    kTplFallHeader = 1u << 2,

    /** Version carries baseline one-time edge instrumentation. */
    kTplBaselineEdge = 1u << 3,
};

/** One Tableswitch case (or default) with its target pre-resolved. */
struct SwitchCase
{
    std::uint32_t tpl = 0;     ///< target template index
    bytecode::Pc pc = 0;       ///< target pc
    cfg::BlockId block = 0;    ///< target block
    std::uint8_t isHeader = 0; ///< target is a loop-header leader
};

/**
 * One pre-decoded instruction (or injected boundary op, or fused
 * superinstruction). Fields are meaningful per kind; unused ones stay
 * zero. `cost`/`ninstr` are the segment sums (the whole trace's sums
 * on a trace-head leader), nonzero only on segment-leader templates
 * and charged unconditionally (a branch-free `+= 0` elsewhere).
 *
 * Fused templates burn their constituents' operands into `a`/`b`:
 *   ConstStore      a=const, b=dst local
 *   LoadStore       a=src local, b=dst local
 *   LoadLoad        a=first local, b=second local
 *   ConstArith      a=const rhs (lhs from the stack)
 *   LoadArith       a=rhs local (lhs from the stack)
 *   LoadLoadArith   a=lhs local, b=rhs local
 *   LoadConstArith  a=lhs local, b=const rhs
 *   LoadZeroBr      a=operand local
 *   LoadLoadCmpBr   a=lhs local, b=rhs local
 *   LoadConstCmpBr  a=lhs local, b=const rhs
 * Trace guards reuse `swFirst`/`swCount` (never used by a conditional
 * branch) as the suffix cost/ninstr refunded on the mispredicted exit.
 */
struct Template
{
    std::uint8_t op = 0;    ///< TOp (bytecode::Opcode value or synthetic)
    std::uint8_t flags = 0;
    std::uint8_t sub = 0;   ///< fused/guard selector opcode (else 0)
    std::uint8_t fuseLen = 1; ///< constituent instructions collapsed
    std::int16_t layout = -1; ///< CompiledMethod::branchLayout[block]
    std::uint32_t cost = 0;   ///< segment (or trace) scaled-cost sum
    std::uint32_t ninstr = 0; ///< segment (or trace) instruction count

    std::int32_t a = 0; ///< operand (local / constant / callee / sw low)
    std::int32_t b = 0; ///< operand

    cfg::BlockId block = 0;    ///< block this instruction belongs to
    std::uint32_t flatBase = 0; ///< the CFG's edgeBase[block]

    /** Taken target (branches/Goto) — template, pc, block. */
    std::uint32_t taken = 0;
    bytecode::Pc takenPc = 0;
    cfg::BlockId takenBlock = 0;

    /** Fall-through target (branches/FallEdge/Invoke). */
    std::uint32_t fall = 0;
    bytecode::Pc fallPc = 0;
    cfg::BlockId fallBlock = 0;

    /** Tableswitch slice into DecodedMethod::switchCases
     *  (swCount cases followed by the default entry); trace guards:
     *  suffix cost (`swFirst`) / ninstr (`swCount`) refund. */
    std::uint32_t swFirst = 0;
    std::uint32_t swCount = 0;

    bytecode::Pc pc = 0; ///< source pc (fused: first constituent's;
                         ///< FallEdge: pc of the block end)
};

/** The translated form of one compiled version. */
struct DecodedMethod
{
    /** Version this stream was translated from (not owned). */
    const CompiledMethod *source = nullptr;

    /** Code/tables the stream executes (the inlined body's when the
     *  version has one; not owned). */
    const bytecode::Method *code = nullptr;
    const MethodInfo *info = nullptr;

    /** Fusion selection this stream was translated under (the
     *  machine's; the stream proof checks the templates against it). */
    FuseOptions fuse;

    std::vector<Template> stream;

    /** pc -> template index (injected FallEdge templates shift the
     *  stream and fused templates cover several pcs, so the mapping is
     *  not the identity; every constituent pc maps to its fused
     *  template). */
    std::vector<std::uint32_t> pcToTemplate;

    std::vector<SwitchCase> switchCases;

    /** Straightened hot traces: member blocks in execution order
     *  (head first), plus block -> trace index (-1 when not in a
     *  trace). Empty / all -1 unless `fuse.traces`. */
    std::vector<std::vector<cfg::BlockId>> traces;
    std::vector<std::int32_t> blockTrace;
};

// ---- Fusion introspection (shared by the translator, the threaded
//      engine, and the verification layer) ----------------------------

/** Arithmetic opcodes eligible for operand fusion (Iadd..Ishr; Ineg is
 *  unary and stays unfused). */
bool isFusibleArith(bytecode::Opcode op);

/** Zero-compare conditional branches (Ifeq..Ifle). */
bool isZeroBranch(bytecode::Opcode op);

/** One fusion-menu match. */
struct FusionMatch
{
    std::uint8_t top = 0; ///< fused TOp
    std::uint8_t len = 0; ///< constituent instructions (0: no match)
    std::uint8_t sub = 0; ///< selector constituent opcode
};

/**
 * Longest fusion-menu match starting at `pc` — a pure function of the
 * code bytes (triples before pairs, so selection is deterministic).
 * Callers gate on segment structure separately: a match is only
 * *applied* when no later constituent pc is a segment leader and the
 * terminator is not a trace guard.
 */
FusionMatch matchFusion(const bytecode::Method &code, bytecode::Pc pc);

/** Guard TOp for a conditional branch hoisted into a trace guard. */
std::uint8_t guardTopFor(bytecode::Opcode op);

/** True for trace-guard TOps. */
bool isGuardTop(std::uint8_t top);

/** True for fused superinstruction TOps (guards excluded). */
bool isFusedTop(std::uint8_t top);

/** True for fused TOps whose last constituent is a conditional
 *  branch. */
bool isFusedBranchTop(std::uint8_t top);

/**
 * The conditional-branch opcode a guard or fused-branch TOp encodes
 * (its `sub`, re-derived from the top value alone).
 */
bytecode::Opcode branchOpcodeOfTop(std::uint8_t top);

/**
 * The hot-trace chains translateMethod forms for this version under
 * `fuse` (empty unless fuse.traces): maximal runs of no-Invoke blocks
 * linked by predicted-fall-through transitions into non-header,
 * single-predecessor successors. Exposed for tests and the
 * template-stream proof.
 */
std::vector<std::vector<cfg::BlockId>>
selectTraces(const bytecode::Method &code, const MethodInfo &info,
             const CompiledMethod &cm, const FuseOptions &fuse);

/**
 * Translate one compiled version into a template stream. `code` and
 * `info` must be the code the version executes (its inlined body's
 * when present) and must outlive the result; so must `cm`.
 */
DecodedMethod translateMethod(const bytecode::Method &code,
                              const MethodInfo &info,
                              const CompiledMethod &cm,
                              const FuseOptions &fuse = {});

} // namespace pep::vm

#endif // PEP_VM_DECODED_METHOD_HH
