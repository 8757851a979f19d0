#include "vm/interpreter.hh"

#include "vm/decoded_method.hh"
#include "vm/inliner.hh"

#include "support/panic.hh"

/**
 * @file
 * The threaded execution backend (docs/ENGINE.md): executes the
 * pre-decoded template stream of each frame's compiled version.
 * Straight-line template handlers are a charge (+= the segment sum,
 * zero off segment leaders), the operation itself, and an indirect
 * jump — no per-instruction decode, cost lookup, leader test, or
 * park check. All boundary work (edges, yieldpoints, frame push/pop,
 * OSR) funnels through the same helpers as the switch backend, which
 * is what makes the two engines byte-identical on profiles, samples,
 * and simulated cycles.
 *
 * The machine's inline path profiler (docs/ENGINE.md, "Inline path
 * registers") is not a hook here: an edge template whose path-work bit
 * for the taken successor is set applies flatEdgeActions[t.flatBase +
 * succ] to the frame's PathRegister (a clear bit skips the register),
 * header transfers apply headerActions[block], and frame push and
 * return bind the stream's plan with r = 0 and complete the exit path
 * — through the same PathRegisterHooks functions the profiler runs
 * when the switch engine drives it by hooks.
 *
 * Fused superinstruction handlers (PEP_FUSE=pairs) execute two or
 * three constituent instructions per dispatch with their operands
 * burned into the template; trace handlers (PEP_FUSE=traces) run
 * straightened multi-block segments whose whole charge was prepaid on
 * the trace head — interior guards refund the unexecuted suffix on a
 * mispredicted exit *before* the edge event can fire a back-edge
 * yieldpoint, so the clock is byte-exact at every observation point
 * (see decoded_method.hh for the invariants that make interiors
 * yieldpoint-free).
 *
 * Dispatch is computed goto, a GCC/Clang extension every compiler that
 * builds this repository has (profile/numbering.cc already needs
 * __builtin_add_overflow).
 */

namespace pep::vm {

#define PEP_OP(name) L_##name:
#define PEP_DISPATCH() goto *kLabels[ts[tp].op]

/**
 * The single source of truth for binary-arithmetic semantics in this
 * backend: each X(name, EXPR) sees lhs `a` / rhs `b` and their
 * unsigned views `ua` / `ub`. The plain handlers and all four fused
 * families expand from this list, so fused results are the switch
 * engine's results by construction.
 */
#define PEP_FOR_EACH_ARITH(X)                                          \
    X(Iadd, static_cast<std::int32_t>(ua + ub))                        \
    X(Isub, static_cast<std::int32_t>(ua - ub))                        \
    X(Imul, static_cast<std::int32_t>(ua * ub))                        \
    X(Idiv, b == 0 ? 0 : (a == INT32_MIN && b == -1) ? a : a / b)      \
    X(Irem, b == 0 ? 0 : (a == INT32_MIN && b == -1) ? 0 : a % b)      \
    X(Iand, static_cast<std::int32_t>(ua & ub))                        \
    X(Ior, static_cast<std::int32_t>(ua | ub))                         \
    X(Ixor, static_cast<std::int32_t>(ua ^ ub))                        \
    X(Ishl, static_cast<std::int32_t>(ua << (ub & 31)))                \
    X(Ishr, a >> (ub & 31))

/** The conditional-branch comparison operators, per family. */
#define PEP_FOR_EACH_ZEROBR(X)                                         \
    X(Ifeq, ==) X(Ifne, !=) X(Iflt, <) X(Ifge, >=) X(Ifgt, >)          \
    X(Ifle, <=)
#define PEP_FOR_EACH_CMPBR(X)                                          \
    X(IfIcmpeq, ==) X(IfIcmpne, !=) X(IfIcmplt, <) X(IfIcmpge, >=)     \
    X(IfIcmpgt, >) X(IfIcmple, <=)

/** Charge the segment (or trace) sums carried by template `t` (zero
 *  off segment leaders: a branch-free no-op). */
#define PEP_CHARGE(t)                                                  \
    vm_.cycles_ += (t).cost;                                           \
    vm_.stats_.instructionsExecuted += (t).ninstr

/**
 * Transfer control to a pre-resolved target: set the resume pc, fire
 * header events (and the header yieldpoint under the default
 * placement, where OSR may swap the frame's version — then everything
 * cached is stale and we rebind from f->pc), honour a pending park
 * request, and dispatch the target template.
 */
#define PEP_TRANSFER(TGT_TPL, TGT_PC, HDR, TGT_BLOCK)                  \
    do {                                                               \
        f->pc = (TGT_PC);                                              \
        if (HDR) {                                                     \
            const CompiledMethod *before = f->version;                 \
            enterHeader(*f, (TGT_BLOCK));                              \
            if (f->version != before)                                  \
                goto rebind;                                           \
        }                                                              \
        if (switchRequested_) {                                        \
            switchRequested_ = false;                                  \
            return;                                                    \
        }                                                              \
        tp = (TGT_TPL);                                                \
    } while (0);                                                       \
    PEP_DISPATCH()

/** Shared body of the conditional-branch handlers (plain and fused). */
#define PEP_COND_TAIL(TAKEN_EXPR)                                      \
    const bool taken = (TAKEN_EXPR);                                   \
    ++vm_.stats_.branchesExecuted;                                     \
    if (taken != (t.layout == 1)) {                                    \
        vm_.cycles_ += cost.layoutMissPenalty;                         \
        ++vm_.stats_.layoutMisses;                                     \
    }                                                                  \
    const std::uint32_t succ = taken ? 0u : 1u;                        \
    if (t.flags & kTplBaselineEdge) {                                  \
        vm_.cycles_ += cost.edgeCounterCost;                           \
        vm_.oneTime_.perMethod[f->method].addEdge(                     \
            cfg::EdgeRef{t.block, succ});                              \
    }                                                                  \
    edgeTakenFast(*f, cfg::EdgeRef{t.block, succ}, t.flatBase + succ,  \
                  (t.pathWork >> succ) & 1u);                          \
    if (taken) {                                                       \
        PEP_TRANSFER(t.taken, t.takenPc, t.flags & kTplTakenHeader,    \
                     t.takenBlock);                                    \
    } else {                                                           \
        PEP_TRANSFER(t.fall, t.fallPc, t.flags & kTplFallHeader,       \
                     t.fallBlock);                                     \
    }

/**
 * Shared body of the trace-guard handlers. Guards only exist on
 * blocks whose layout predicts fall-through (layout != 1), so the
 * taken exit is always the mispredicted one: refund the trace suffix
 * prepaid on the head — *before* the edge event, whose back-edge
 * yieldpoint may read the clock — charge the miss penalty, and leave
 * through a full transfer. The fall exit stays inside the trace:
 * the next block is a non-header single-predecessor member, so no
 * header event, yieldpoint, OSR, or park can occur — a direct jump.
 */
#define PEP_GUARD_TAIL(TAKEN_EXPR)                                     \
    const bool taken = (TAKEN_EXPR);                                   \
    ++vm_.stats_.branchesExecuted;                                     \
    if (taken) {                                                       \
        vm_.cycles_ -= t.swFirst;                                      \
        vm_.stats_.instructionsExecuted -= t.swCount;                  \
        vm_.cycles_ += cost.layoutMissPenalty;                         \
        ++vm_.stats_.layoutMisses;                                     \
    }                                                                  \
    const std::uint32_t succ = taken ? 0u : 1u;                        \
    if (t.flags & kTplBaselineEdge) {                                  \
        vm_.cycles_ += cost.edgeCounterCost;                           \
        vm_.oneTime_.perMethod[f->method].addEdge(                     \
            cfg::EdgeRef{t.block, succ});                              \
    }                                                                  \
    edgeTakenFast(*f, cfg::EdgeRef{t.block, succ}, t.flatBase + succ,  \
                  (t.pathWork >> succ) & 1u);                          \
    if (taken) {                                                       \
        PEP_TRANSFER(t.taken, t.takenPc, t.flags & kTplTakenHeader,    \
                     t.takenBlock);                                    \
    } else {                                                           \
        f->pc = t.fallPc;                                              \
        tp = t.fall;                                                   \
        PEP_DISPATCH();                                                \
    }

/** Zero-compare branch: pop one operand. */
#define PEP_COND_ZERO(name, CMP)                                       \
    PEP_OP(name)                                                       \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t v = f->stack.back();                        \
        f->stack.pop_back();                                           \
        PEP_COND_TAIL(v CMP 0)                                         \
    }

/** Two-operand compare branch: pop two (lhs pushed first). */
#define PEP_COND_CMP(name, CMP)                                        \
    PEP_OP(name)                                                       \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t b = f->stack.back();                        \
        f->stack.pop_back();                                           \
        const std::int32_t a = f->stack.back();                        \
        f->stack.pop_back();                                           \
        PEP_COND_TAIL(a CMP b)                                         \
    }

/** Wrapping binary arithmetic on the top two stack slots. */
#define PEP_BINOP(name, EXPR)                                          \
    PEP_OP(name)                                                       \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t b = f->stack.back();                        \
        f->stack.pop_back();                                           \
        const std::int32_t a = f->stack.back();                        \
        const auto ua = static_cast<std::uint32_t>(a);                 \
        const auto ub = static_cast<std::uint32_t>(b);                 \
        (void)ua;                                                      \
        (void)ub;                                                      \
        f->stack.back() = (EXPR);                                      \
        ++tp;                                                          \
        PEP_DISPATCH();                                                \
    }

/** Trace guard, zero-compare / two-operand families. */
#define PEP_GUARD_ZERO(name, CMP)                                      \
    PEP_OP(GuardZero_##name)                                           \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t v = f->stack.back();                        \
        f->stack.pop_back();                                           \
        PEP_GUARD_TAIL(v CMP 0)                                        \
    }
#define PEP_GUARD_CMP(name, CMP)                                       \
    PEP_OP(GuardCmp_##name)                                            \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t b = f->stack.back();                        \
        f->stack.pop_back();                                           \
        const std::int32_t a = f->stack.back();                        \
        f->stack.pop_back();                                           \
        PEP_GUARD_TAIL(a CMP b)                                        \
    }

/** [Iconst k, arith]: burned-in rhs, lhs replaced on the stack. */
#define PEP_CONST_ARITH(name, EXPR)                                    \
    PEP_OP(ConstArith_##name)                                          \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t b = t.a;                                    \
        const std::int32_t a = f->stack.back();                        \
        const auto ua = static_cast<std::uint32_t>(a);                 \
        const auto ub = static_cast<std::uint32_t>(b);                 \
        (void)ua;                                                      \
        (void)ub;                                                      \
        f->stack.back() = (EXPR);                                      \
        ++tp;                                                          \
        PEP_DISPATCH();                                                \
    }

/** [Iload x, arith]: burned-in rhs local, lhs replaced on the stack. */
#define PEP_LOAD_ARITH(name, EXPR)                                     \
    PEP_OP(LoadArith_##name)                                           \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t b = locals[t.a];                            \
        const std::int32_t a = f->stack.back();                        \
        const auto ua = static_cast<std::uint32_t>(a);                 \
        const auto ub = static_cast<std::uint32_t>(b);                 \
        (void)ua;                                                      \
        (void)ub;                                                      \
        f->stack.back() = (EXPR);                                      \
        ++tp;                                                          \
        PEP_DISPATCH();                                                \
    }

/** [Iload x, Iload y, arith]: no stack traffic at all. */
#define PEP_LOADLOAD_ARITH(name, EXPR)                                 \
    PEP_OP(LoadLoadArith_##name)                                       \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t a = locals[t.a];                            \
        const std::int32_t b = locals[t.b];                            \
        const auto ua = static_cast<std::uint32_t>(a);                 \
        const auto ub = static_cast<std::uint32_t>(b);                 \
        (void)ua;                                                      \
        (void)ub;                                                      \
        f->stack.push_back(EXPR);                                      \
        ++tp;                                                          \
        PEP_DISPATCH();                                                \
    }

/** [Iload x, Iconst k, arith]. */
#define PEP_LOADCONST_ARITH(name, EXPR)                                \
    PEP_OP(LoadConstArith_##name)                                      \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t a = locals[t.a];                            \
        const std::int32_t b = t.b;                                    \
        const auto ua = static_cast<std::uint32_t>(a);                 \
        const auto ub = static_cast<std::uint32_t>(b);                 \
        (void)ua;                                                      \
        (void)ub;                                                      \
        f->stack.push_back(EXPR);                                      \
        ++tp;                                                          \
        PEP_DISPATCH();                                                \
    }

/** [Iload x, ifXX]: operand straight from the local. */
#define PEP_LOAD_ZEROBR(name, CMP)                                     \
    PEP_OP(LoadZeroBr_##name)                                          \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t v = locals[t.a];                            \
        PEP_COND_TAIL(v CMP 0)                                         \
    }

/** [Iload x, Iload y, if_icmpXX]. */
#define PEP_LOADLOAD_CMPBR(name, CMP)                                  \
    PEP_OP(LoadLoadCmpBr_##name)                                       \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t a = locals[t.a];                            \
        const std::int32_t b = locals[t.b];                            \
        PEP_COND_TAIL(a CMP b)                                         \
    }

/** [Iload x, Iconst k, if_icmpXX]. */
#define PEP_LOADCONST_CMPBR(name, CMP)                                 \
    PEP_OP(LoadConstCmpBr_##name)                                      \
    {                                                                  \
        const Template &t = ts[tp];                                    \
        PEP_CHARGE(t);                                                 \
        const std::int32_t a = locals[t.a];                            \
        const std::int32_t b = t.b;                                    \
        PEP_COND_TAIL(a CMP b)                                         \
    }

/** Method return (shared by Return/Ireturn). */
#define PEP_RETURN_BODY(HAS_RESULT)                                    \
    const Template &t = ts[tp];                                        \
    PEP_CHARGE(t);                                                     \
    std::int32_t result = 0;                                           \
    if (HAS_RESULT) {                                                  \
        result = f->stack.back();                                      \
        f->stack.pop_back();                                           \
    }                                                                  \
    edgeTakenFast(*f, cfg::EdgeRef{t.block, 0}, t.flatBase,            \
                  t.pathWork & 1u);                                    \
    exitFrame(*f);                                                     \
    yieldpoint(YieldpointKind::MethodExit);                            \
    frames_.pop_back();                                                \
    if (!frames_.empty() && (HAS_RESULT))                              \
        frames_.back().stack.push_back(result);                        \
    goto rebind

void
Interpreter::loopThreaded()
{
    const CostModel &cost = vm_.params_.cost;

    Frame *f = nullptr;
    const Template *ts = nullptr;
    const SwitchCase *sw = nullptr;
    std::int32_t *locals = nullptr;
    std::uint32_t tp = 0;

    // Indexed by TOp: bytecode::Opcode values, then the synthetic
    // entries in the order decoded_method.hh lays out the top space.
#define PEP_LBL_GZ(name, CMP) &&L_GuardZero_##name,
#define PEP_LBL_GC(name, CMP) &&L_GuardCmp_##name,
#define PEP_LBL_CA(name, EXPR) &&L_ConstArith_##name,
#define PEP_LBL_LA(name, EXPR) &&L_LoadArith_##name,
#define PEP_LBL_LLA(name, EXPR) &&L_LoadLoadArith_##name,
#define PEP_LBL_LCA(name, EXPR) &&L_LoadConstArith_##name,
#define PEP_LBL_LZB(name, CMP) &&L_LoadZeroBr_##name,
#define PEP_LBL_LLC(name, CMP) &&L_LoadLoadCmpBr_##name,
#define PEP_LBL_LCC(name, CMP) &&L_LoadConstCmpBr_##name,
    static const void *const kLabels[kNumTops] = {
        &&L_Iconst,      &&L_Iload,    &&L_Istore,   &&L_Iinc,
        &&L_Dup,         &&L_Pop,      &&L_Swap,     &&L_Iadd,
        &&L_Isub,        &&L_Imul,     &&L_Idiv,     &&L_Irem,
        &&L_Iand,        &&L_Ior,      &&L_Ixor,     &&L_Ishl,
        &&L_Ishr,        &&L_Ineg,     &&L_Gload,    &&L_Gstore,
        &&L_Irnd,        &&L_Goto,     &&L_Ifeq,     &&L_Ifne,
        &&L_Iflt,        &&L_Ifge,     &&L_Ifgt,     &&L_Ifle,
        &&L_IfIcmpeq,    &&L_IfIcmpne, &&L_IfIcmplt, &&L_IfIcmpge,
        &&L_IfIcmpgt,    &&L_IfIcmple, &&L_Tableswitch, &&L_Invoke,
        &&L_Return,      &&L_Ireturn,  &&L_FallEdge,
        &&L_TraceFall,
        PEP_FOR_EACH_ZEROBR(PEP_LBL_GZ)
        PEP_FOR_EACH_CMPBR(PEP_LBL_GC)
        &&L_ConstStore,  &&L_LoadStore, &&L_LoadLoad,
        PEP_FOR_EACH_ARITH(PEP_LBL_CA)
        PEP_FOR_EACH_ARITH(PEP_LBL_LA)
        PEP_FOR_EACH_ARITH(PEP_LBL_LLA)
        PEP_FOR_EACH_ARITH(PEP_LBL_LCA)
        PEP_FOR_EACH_ZEROBR(PEP_LBL_LZB)
        PEP_FOR_EACH_CMPBR(PEP_LBL_LLC)
        PEP_FOR_EACH_CMPBR(PEP_LBL_LCC)
    };
#undef PEP_LBL_GZ
#undef PEP_LBL_GC
#undef PEP_LBL_CA
#undef PEP_LBL_LA
#undef PEP_LBL_LLA
#undef PEP_LBL_LCA
#undef PEP_LBL_LZB
#undef PEP_LBL_LLC
#undef PEP_LBL_LCC

rebind:
    // Boundary state: derive everything from the top frame's
    // (version, pc). Parks land here with the frame stack intact, and
    // every parkable pc is a segment leader, so pcToTemplate resumes
    // the stream exactly where the switch engine would — under fusion
    // a segment-leader pc is always the first constituent of its
    // template, so resumption never lands mid-superinstruction.
    if (frames_.empty())
        return;
    if (switchRequested_) {
        switchRequested_ = false;
        return;
    }
    {
        f = &frames_.back();
        const DecodedMethod &dm = vm_.decodedFor(*f->version);
        ts = dm.stream.data();
        sw = dm.switchCases.data();
        locals = f->locals.data();
        tp = dm.pcToTemplate[f->pc];
    }
    PEP_DISPATCH();

    PEP_OP(Iconst)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.push_back(t.a);
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Iload)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.push_back(locals[t.a]);
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Istore)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        locals[t.a] = f->stack.back();
        f->stack.pop_back();
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Iinc)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        locals[t.a] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(locals[t.a]) +
            static_cast<std::uint32_t>(t.b));
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Dup)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.push_back(f->stack.back());
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Pop)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.pop_back();
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Swap)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        std::swap(f->stack[f->stack.size() - 1],
                  f->stack[f->stack.size() - 2]);
        ++tp;
        PEP_DISPATCH();
    }
    PEP_FOR_EACH_ARITH(PEP_BINOP)
    PEP_OP(Ineg)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.back() = static_cast<std::int32_t>(
            -static_cast<std::uint32_t>(f->stack.back()));
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Gload)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        const std::int32_t idx = f->stack.back();
        if (idx < 0 ||
            static_cast<std::size_t>(idx) >= vm_.globals_.size()) {
            support::fatal("gload index out of bounds");
        }
        f->stack.back() = vm_.globals_[idx];
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Gstore)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        const std::int32_t idx = f->stack.back();
        f->stack.pop_back();
        const std::int32_t value = f->stack.back();
        f->stack.pop_back();
        if (idx < 0 ||
            static_cast<std::size_t>(idx) >= vm_.globals_.size()) {
            support::fatal("gstore index out of bounds");
        }
        vm_.globals_[idx] = value;
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Irnd)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.push_back(static_cast<std::int32_t>(rng_->next()));
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(Goto)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        edgeTakenFast(*f, cfg::EdgeRef{t.block, 0}, t.flatBase,
                      t.pathWork & 1u);
        PEP_TRANSFER(t.taken, t.takenPc, t.flags & kTplTakenHeader,
                     t.takenBlock);
    }
    PEP_FOR_EACH_ZEROBR(PEP_COND_ZERO)
    PEP_FOR_EACH_CMPBR(PEP_COND_CMP)
    PEP_OP(Tableswitch)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        const std::int32_t v = f->stack.back();
        f->stack.pop_back();
        const std::int64_t rel = static_cast<std::int64_t>(v) - t.a;
        const std::uint32_t succ =
            (rel >= 0 && rel < static_cast<std::int64_t>(t.swCount))
                ? static_cast<std::uint32_t>(rel)
                : t.swCount;
        ++vm_.stats_.branchesExecuted;
        const std::uint32_t predicted =
            t.layout >= 0 ? static_cast<std::uint32_t>(t.layout)
                          : t.swCount;
        if (succ != predicted) {
            vm_.cycles_ += cost.layoutMissPenalty;
            ++vm_.stats_.layoutMisses;
        }
        if (t.flags & kTplBaselineEdge) {
            vm_.cycles_ += cost.edgeCounterCost;
            vm_.oneTime_.perMethod[f->method].addEdge(
                cfg::EdgeRef{t.block, succ});
        }
        const SwitchCase &c = sw[t.swFirst + succ];
        edgeTakenFast(*f, cfg::EdgeRef{t.block, succ},
                      t.flatBase + succ, c.pathWork);
        PEP_TRANSFER(c.tpl, c.pc, c.isHeader, c.block);
    }
    PEP_OP(Invoke)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        const auto callee = static_cast<bytecode::MethodId>(t.a);
        // Resume point for the caller; when the Invoke ends its block,
        // its fall-through is a CFG edge (possibly into a header, whose
        // yieldpoint may OSR this frame — pushFrame then proceeds
        // against the remapped pc, and the post-return rebind re-derives
        // the template from it).
        f->pc = t.fallPc;
        if (t.flags & kTplEndsBlock) {
            edgeTakenFast(*f, cfg::EdgeRef{t.block, 0}, t.flatBase,
                          t.pathWork & 1u);
            if (t.flags & kTplFallHeader)
                enterHeader(*f, t.fallBlock);
        }
        pushFrame(callee, f);
        goto rebind;
    }
    PEP_OP(Return)
    {
        PEP_RETURN_BODY(false);
    }
    PEP_OP(Ireturn)
    {
        PEP_RETURN_BODY(true);
    }
    PEP_OP(FallEdge)
    {
        // Injected fall-through block end: the block's single CFG edge
        // plus the transfer (cost/ninstr are zero — no instruction).
        const Template &t = ts[tp];
        edgeTakenFast(*f, cfg::EdgeRef{t.block, 0}, t.flatBase,
                      t.pathWork & 1u);
        PEP_TRANSFER(t.fall, t.fallPc, t.flags & kTplFallHeader,
                     t.fallBlock);
    }
    PEP_OP(TraceFall)
    {
        // Trace-interior fall-through block end: the edge event plus a
        // direct jump — the target is a non-header single-predecessor
        // trace member, so no header event, yieldpoint, or park can
        // fire here (the edge is never a back edge: back edges target
        // headers).
        const Template &t = ts[tp];
        edgeTakenFast(*f, cfg::EdgeRef{t.block, 0}, t.flatBase,
                      t.pathWork & 1u);
        f->pc = t.fallPc;
        tp = t.fall;
        PEP_DISPATCH();
    }
    PEP_FOR_EACH_ZEROBR(PEP_GUARD_ZERO)
    PEP_FOR_EACH_CMPBR(PEP_GUARD_CMP)
    PEP_OP(ConstStore)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        locals[t.b] = t.a;
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(LoadStore)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        locals[t.b] = locals[t.a];
        ++tp;
        PEP_DISPATCH();
    }
    PEP_OP(LoadLoad)
    {
        const Template &t = ts[tp];
        PEP_CHARGE(t);
        f->stack.push_back(locals[t.a]);
        f->stack.push_back(locals[t.b]);
        ++tp;
        PEP_DISPATCH();
    }
    PEP_FOR_EACH_ARITH(PEP_CONST_ARITH)
    PEP_FOR_EACH_ARITH(PEP_LOAD_ARITH)
    PEP_FOR_EACH_ARITH(PEP_LOADLOAD_ARITH)
    PEP_FOR_EACH_ARITH(PEP_LOADCONST_ARITH)
    PEP_FOR_EACH_ZEROBR(PEP_LOAD_ZEROBR)
    PEP_FOR_EACH_CMPBR(PEP_LOADLOAD_CMPBR)
    PEP_FOR_EACH_CMPBR(PEP_LOADCONST_CMPBR)
}

#undef PEP_OP
#undef PEP_DISPATCH
#undef PEP_FOR_EACH_ARITH
#undef PEP_FOR_EACH_ZEROBR
#undef PEP_FOR_EACH_CMPBR
#undef PEP_CHARGE
#undef PEP_TRANSFER
#undef PEP_COND_TAIL
#undef PEP_GUARD_TAIL
#undef PEP_COND_ZERO
#undef PEP_COND_CMP
#undef PEP_BINOP
#undef PEP_GUARD_ZERO
#undef PEP_GUARD_CMP
#undef PEP_CONST_ARITH
#undef PEP_LOAD_ARITH
#undef PEP_LOADLOAD_ARITH
#undef PEP_LOADCONST_ARITH
#undef PEP_LOAD_ZEROBR
#undef PEP_LOADLOAD_CMPBR
#undef PEP_LOADCONST_CMPBR
#undef PEP_RETURN_BODY

} // namespace pep::vm
