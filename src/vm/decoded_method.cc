#include "vm/decoded_method.hh"

#include "vm/compiled_method.hh"
#include "vm/hooks.hh"
#include "vm/machine.hh"

#include "support/panic.hh"

namespace pep::vm {

namespace {

/** Segment-leader pcs: block leaders plus post-Invoke resume points
 *  (pc 0 is always a leader — it starts the first segment). */
std::vector<bool>
segmentLeaders(const bytecode::Method &code, const MethodInfo &info)
{
    std::vector<bool> leader(code.code.size(), false);
    if (!leader.empty())
        leader[0] = true;
    for (bytecode::Pc pc = 0; pc < code.code.size(); ++pc) {
        if (info.leaderPc[pc])
            leader[pc] = true;
        if (code.code[pc].op == bytecode::Opcode::Invoke &&
            pc + 1 < code.code.size()) {
            leader[pc + 1] = true;
        }
    }
    return leader;
}

std::uint8_t
raw(bytecode::Opcode op)
{
    return static_cast<std::uint8_t>(op);
}

/** Longest run of blocks straightened into one trace. */
constexpr std::size_t kMaxTraceBlocks = 16;

} // namespace

bool
isFusibleArith(bytecode::Opcode op)
{
    return op >= bytecode::Opcode::Iadd && op <= bytecode::Opcode::Ishr;
}

bool
isZeroBranch(bytecode::Opcode op)
{
    return op >= bytecode::Opcode::Ifeq && op <= bytecode::Opcode::Ifle;
}

FusionMatch
matchFusion(const bytecode::Method &code, bytecode::Pc pc)
{
    using bytecode::Opcode;
    const auto n = static_cast<bytecode::Pc>(code.code.size());
    const Opcode op0 = code.code[pc].op;

    // Triples first (so selection is deterministic and greedy-longest).
    if (op0 == Opcode::Iload && pc + 2 < n) {
        const Opcode op1 = code.code[pc + 1].op;
        const Opcode op2 = code.code[pc + 2].op;
        if (op1 == Opcode::Iload) {
            if (isFusibleArith(op2)) {
                return {static_cast<std::uint8_t>(
                            kTopLoadLoadArithBase +
                            (raw(op2) - raw(Opcode::Iadd))),
                        3, raw(op2)};
            }
            if (bytecode::isCmpBranch(op2)) {
                return {static_cast<std::uint8_t>(
                            kTopLoadLoadCmpBrBase +
                            (raw(op2) - raw(Opcode::IfIcmpeq))),
                        3, raw(op2)};
            }
        }
        if (op1 == Opcode::Iconst) {
            if (isFusibleArith(op2)) {
                return {static_cast<std::uint8_t>(
                            kTopLoadConstArithBase +
                            (raw(op2) - raw(Opcode::Iadd))),
                        3, raw(op2)};
            }
            if (bytecode::isCmpBranch(op2)) {
                return {static_cast<std::uint8_t>(
                            kTopLoadConstCmpBrBase +
                            (raw(op2) - raw(Opcode::IfIcmpeq))),
                        3, raw(op2)};
            }
        }
    }

    // Pairs.
    if (pc + 1 < n) {
        const Opcode op1 = code.code[pc + 1].op;
        if (op0 == Opcode::Iconst) {
            if (op1 == Opcode::Istore)
                return {kTopConstStore, 2, raw(Opcode::Istore)};
            if (isFusibleArith(op1)) {
                return {static_cast<std::uint8_t>(
                            kTopConstArithBase +
                            (raw(op1) - raw(Opcode::Iadd))),
                        2, raw(op1)};
            }
        }
        if (op0 == Opcode::Iload) {
            if (op1 == Opcode::Istore)
                return {kTopLoadStore, 2, raw(Opcode::Istore)};
            if (op1 == Opcode::Iload)
                return {kTopLoadLoad, 2, raw(Opcode::Iload)};
            if (isFusibleArith(op1)) {
                return {static_cast<std::uint8_t>(
                            kTopLoadArithBase +
                            (raw(op1) - raw(Opcode::Iadd))),
                        2, raw(op1)};
            }
            if (isZeroBranch(op1)) {
                return {static_cast<std::uint8_t>(
                            kTopLoadZeroBrBase +
                            (raw(op1) - raw(Opcode::Ifeq))),
                        2, raw(op1)};
            }
        }
    }
    return {};
}

std::uint8_t
guardTopFor(bytecode::Opcode op)
{
    using bytecode::Opcode;
    if (isZeroBranch(op)) {
        return static_cast<std::uint8_t>(kTopGuardZeroBase +
                                         (raw(op) - raw(Opcode::Ifeq)));
    }
    PEP_ASSERT(bytecode::isCmpBranch(op));
    return static_cast<std::uint8_t>(kTopGuardCmpBase +
                                     (raw(op) - raw(Opcode::IfIcmpeq)));
}

bool
isGuardTop(std::uint8_t top)
{
    return top >= kTopGuardZeroBase && top < kTopGuardCmpBase + 6;
}

bool
isFusedTop(std::uint8_t top)
{
    return top >= kTopConstStore && top < kNumTops;
}

bool
isFusedBranchTop(std::uint8_t top)
{
    return top >= kTopLoadZeroBrBase && top < kNumTops;
}

bytecode::Opcode
branchOpcodeOfTop(std::uint8_t top)
{
    using bytecode::Opcode;
    if (top >= kTopGuardZeroBase && top < kTopGuardZeroBase + 6) {
        return static_cast<Opcode>(raw(Opcode::Ifeq) +
                                   (top - kTopGuardZeroBase));
    }
    if (top >= kTopGuardCmpBase && top < kTopGuardCmpBase + 6) {
        return static_cast<Opcode>(raw(Opcode::IfIcmpeq) +
                                   (top - kTopGuardCmpBase));
    }
    if (top >= kTopLoadZeroBrBase && top < kTopLoadZeroBrBase + 6) {
        return static_cast<Opcode>(raw(Opcode::Ifeq) +
                                   (top - kTopLoadZeroBrBase));
    }
    if (top >= kTopLoadLoadCmpBrBase && top < kTopLoadLoadCmpBrBase + 6) {
        return static_cast<Opcode>(raw(Opcode::IfIcmpeq) +
                                   (top - kTopLoadLoadCmpBrBase));
    }
    PEP_ASSERT_MSG(top >= kTopLoadConstCmpBrBase && top < kNumTops,
                   "not a branch top");
    return static_cast<Opcode>(raw(Opcode::IfIcmpeq) +
                               (top - kTopLoadConstCmpBrBase));
}

std::vector<std::vector<cfg::BlockId>>
selectTraces(const bytecode::Method &code, const MethodInfo &info,
             const CompiledMethod &cm, const FuseOptions &fuse)
{
    using bytecode::TerminatorKind;

    std::vector<std::vector<cfg::BlockId>> traces;
    if (!fuse.traces)
        return traces;

    const bytecode::MethodCfg &mcfg = info.cfg;
    const cfg::Graph &graph = mcfg.graph;
    const std::size_t num_blocks = graph.numBlocks();

    std::vector<bool> has_invoke(num_blocks, false);
    for (bytecode::Pc pc = 0; pc < code.code.size(); ++pc) {
        if (code.code[pc].op == bytecode::Opcode::Invoke)
            has_invoke[mcfg.blockOfPc[pc]] = true;
    }

    // A member block must be single-segment (no Invoke, so no callee
    // yieldpoint can observe the prepaid trace charge mid-trace).
    const auto member_eligible = [&](cfg::BlockId b) {
        return mcfg.isCodeBlock(b) && !has_invoke[b];
    };

    std::vector<bool> in_trace(num_blocks, false);
    for (cfg::BlockId b = 0; b < num_blocks; ++b) {
        if (in_trace[b] || !member_eligible(b))
            continue;
        std::vector<cfg::BlockId> chain{b};
        in_trace[b] = true;
        cfg::BlockId cur = b;
        while (chain.size() < kMaxTraceBlocks) {
            // Extend only through the predicted-fall-through direction:
            // a plain fall-through block end, or a conditional branch
            // whose laid-out direction is fall-through (layout != 1 —
            // which also covers no-information, matching the miss-
            // penalty rule's notion of "predicted").
            const TerminatorKind kind = mcfg.terminator[cur];
            const bool extends =
                kind == TerminatorKind::Fallthrough ||
                (kind == TerminatorKind::Cond && cm.layoutFor(cur) != 1);
            if (!extends)
                break;
            const bytecode::Pc next_pc = mcfg.lastPc[cur] + 1;
            PEP_ASSERT(next_pc < code.code.size());
            const cfg::BlockId next = mcfg.blockOfPc[next_pc];
            // Interiors must be invisible to the outside world: no
            // second entry (single predecessor) and no loop-header
            // events/yieldpoints — so no park, OSR, or clock read can
            // happen between the head's transfer and the trace's exit.
            if (!member_eligible(next) || mcfg.isLoopHeader[next] ||
                graph.preds(next).size() != 1 || in_trace[next]) {
                break;
            }
            chain.push_back(next);
            in_trace[next] = true;
            cur = next;
        }
        if (chain.size() >= 2)
            traces.push_back(std::move(chain));
        else
            in_trace[b] = false;
    }
    return traces;
}

DecodedMethod
translateMethod(const bytecode::Method &code, const MethodInfo &info,
                const CompiledMethod &cm, const FuseOptions &fuse,
                PathPlan *plan)
{
    using bytecode::Opcode;
    using bytecode::TerminatorKind;

    DecodedMethod dm;
    dm.source = &cm;
    dm.code = &code;
    dm.info = &info;
    dm.fuse = fuse;
    dm.plan = plan;

    const cfg::Graph &graph = info.cfg.graph;

    const std::size_t n = code.code.size();
    const std::vector<bool> seg_leader = segmentLeaders(code, info);
    dm.pcToTemplate.assign(n, 0);
    dm.stream.reserve(n + n / 4);

    const auto is_header = [&](bytecode::Pc pc) {
        return info.headerLeaderPc[pc] ? std::uint8_t{1} : std::uint8_t{0};
    };
    // Whether the edge to successor `succ` of `block` does register
    // work under the plan, and the bits of a one- or two-way exit.
    const auto path_work = [&](cfg::BlockId block, std::uint32_t succ) {
        return plan && edgeDoesPathWork(
                           plan->edges[info.cfg.flatEdgeId({block, succ})]);
    };
    const auto exit_bits = [&](cfg::BlockId block, std::uint32_t succs) {
        std::uint8_t bits = 0;
        for (std::uint32_t succ = 0; succ < succs; ++succ)
            bits |= static_cast<std::uint8_t>(path_work(block, succ) << succ);
        return bits;
    };

    // Trace selection, and the pcs whose branch becomes a trace guard
    // (pair fusion must not swallow those — the guard top carries the
    // suffix refund in fields a fused branch needs for operands).
    dm.traces = selectTraces(code, info, cm, fuse);
    dm.blockTrace.assign(graph.numBlocks(), -1);
    std::vector<bool> guard_pc(n, false);
    for (std::size_t ti = 0; ti < dm.traces.size(); ++ti) {
        const std::vector<cfg::BlockId> &chain = dm.traces[ti];
        for (cfg::BlockId b : chain)
            dm.blockTrace[b] = static_cast<std::int32_t>(ti);
        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            if (info.cfg.terminator[chain[i]] == TerminatorKind::Cond)
                guard_pc[info.cfg.lastPc[chain[i]]] = true;
        }
    }

    // Pass 1: emit templates in pc order (injecting a FallEdge after
    // each fall-through block end and collapsing fusion-menu matches
    // into one template), folding segment cost sums onto the segment
    // leader's template.
    std::uint32_t seg_tpl = 0;
    bytecode::Pc pc = 0;
    while (pc < n) {
        const bytecode::Instr &instr = code.code[pc];
        const cfg::BlockId block = info.cfg.blockOfPc[pc];

        // Fusion decision: a menu match applies only when it stays
        // inside one segment (no later constituent is a segment
        // leader) and does not swallow a trace guard's branch.
        FusionMatch match;
        if (fuse.pairs) {
            match = matchFusion(code, pc);
            for (std::uint8_t j = 1; match.len && j < match.len; ++j) {
                if (seg_leader[pc + j])
                    match.len = 0;
            }
            if (match.len && guard_pc[pc + match.len - 1])
                match.len = 0;
        }
        const std::uint8_t span = match.len ? match.len : 1;
        const bytecode::Pc last = pc + span - 1;
        const bytecode::Instr &last_instr = code.code[last];

        Template t;
        t.op = match.len ? match.top : raw(instr.op);
        t.sub = match.sub;
        t.fuseLen = span;
        t.pc = pc;
        t.block = block;
        t.flatBase = info.cfg.edgeBase[block];
        t.layout = cm.layoutFor(block);
        if (cm.baselineEdgeInstr)
            t.flags |= kTplBaselineEdge;

        const std::uint32_t tpl =
            static_cast<std::uint32_t>(dm.stream.size());
        for (std::uint8_t j = 0; j < span; ++j)
            dm.pcToTemplate[pc + j] = tpl;
        if (seg_leader[pc])
            seg_tpl = tpl;

        if (match.len) {
            // Burn in the constituents' operands (see Template docs):
            // first constituent's operand in `a`; the second's in `b`
            // when the pattern consumes it (store target, second load,
            // const rhs).
            t.a = instr.a;
            if (span == 3 || t.op == kTopConstStore ||
                t.op == kTopLoadStore || t.op == kTopLoadLoad) {
                t.b = code.code[pc + 1].a;
            }
            if (isFusedBranchTop(t.op)) {
                t.takenPc = static_cast<bytecode::Pc>(last_instr.a);
                t.takenBlock = info.cfg.blockOfPc[t.takenPc];
                if (is_header(t.takenPc))
                    t.flags |= kTplTakenHeader;
                PEP_ASSERT(last + 1 < n);
                t.fallPc = last + 1;
                t.fallBlock = info.cfg.blockOfPc[last + 1];
                if (is_header(last + 1))
                    t.flags |= kTplFallHeader;
                t.pathWork = exit_bits(block, 2);
            }
        } else {
            t.a = instr.a;
            t.b = instr.b;
            switch (instr.op) {
              case Opcode::Goto:
                t.takenPc = static_cast<bytecode::Pc>(instr.a);
                t.takenBlock = info.cfg.blockOfPc[t.takenPc];
                if (is_header(t.takenPc))
                    t.flags |= kTplTakenHeader;
                t.pathWork = exit_bits(block, 1);
                break;
              case Opcode::Tableswitch: {
                t.swFirst =
                    static_cast<std::uint32_t>(dm.switchCases.size());
                t.swCount = static_cast<std::uint32_t>(instr.table.size());
                for (std::size_t i = 0; i <= instr.table.size(); ++i) {
                    // Cases 0..k-1, then the default entry.
                    const auto target = static_cast<bytecode::Pc>(
                        i < instr.table.size() ? instr.table[i] : instr.b);
                    SwitchCase sc;
                    sc.pc = target;
                    sc.block = info.cfg.blockOfPc[target];
                    sc.isHeader = is_header(target);
                    sc.pathWork =
                        path_work(block, static_cast<std::uint32_t>(i));
                    dm.switchCases.push_back(sc);
                }
                break;
              }
              case Opcode::Invoke:
                PEP_ASSERT_MSG(pc + 1 < n,
                               "Invoke at method end has no resume point");
                t.fallPc = pc + 1;
                if (info.leaderPc[pc + 1]) {
                    t.flags |= kTplEndsBlock;
                    t.fallBlock = info.cfg.blockOfPc[pc + 1];
                    if (is_header(pc + 1))
                        t.flags |= kTplFallHeader;
                    t.pathWork = exit_bits(block, 1);
                }
                break;
              case Opcode::Return:
              case Opcode::Ireturn:
                t.pathWork = exit_bits(block, 1);
                break;
              default:
                if (bytecode::isCondBranch(instr.op)) {
                    t.takenPc = static_cast<bytecode::Pc>(instr.a);
                    t.takenBlock = info.cfg.blockOfPc[t.takenPc];
                    if (is_header(t.takenPc))
                        t.flags |= kTplTakenHeader;
                    t.fallPc = pc + 1;
                    PEP_ASSERT(pc + 1 < n);
                    t.fallBlock = info.cfg.blockOfPc[pc + 1];
                    if (is_header(pc + 1))
                        t.flags |= kTplFallHeader;
                    t.pathWork = exit_bits(block, 2);
                }
                break;
            }
        }
        dm.stream.push_back(t);

        // Fold every constituent into its segment's charge.
        for (std::uint8_t j = 0; j < span; ++j) {
            const auto op_index =
                static_cast<std::size_t>(code.code[pc + j].op);
            PEP_ASSERT(op_index < cm.scaledCost.size());
            const std::uint64_t folded =
                static_cast<std::uint64_t>(dm.stream[seg_tpl].cost) +
                cm.scaledCost[op_index];
            PEP_ASSERT_MSG(folded <= UINT32_MAX, "segment cost overflow");
            dm.stream[seg_tpl].cost = static_cast<std::uint32_t>(folded);
            dm.stream[seg_tpl].ninstr += 1;
        }

        // Inject the fall-through block-end boundary: a non-terminator,
        // non-Invoke (last) instruction whose successor pc starts a new
        // block takes the block's single CFG edge and transfers.
        const bool falls_into_leader =
            !bytecode::isTerminator(last_instr.op) &&
            last_instr.op != Opcode::Invoke && last + 1 < n &&
            info.leaderPc[last + 1];
        if (falls_into_leader) {
            Template fe;
            fe.op = kTopFallEdge;
            fe.pc = last;
            fe.block = block;
            fe.flatBase = info.cfg.edgeBase[block];
            fe.fallPc = last + 1;
            fe.fallBlock = info.cfg.blockOfPc[last + 1];
            if (is_header(last + 1))
                fe.flags |= kTplFallHeader;
            fe.pathWork = exit_bits(block, 1);
            dm.stream.push_back(fe);
        } else if (!bytecode::isTerminator(last_instr.op) &&
                   last_instr.op != Opcode::Invoke) {
            PEP_ASSERT_MSG(last + 1 < n,
                           "control falls off the end of the method");
        }
        pc += span;
    }

    // Pass 2: resolve control-transfer targets to template indices.
    for (Template &t : dm.stream) {
        switch (t.op) {
          case static_cast<std::uint8_t>(Opcode::Goto):
            t.taken = dm.pcToTemplate[t.takenPc];
            break;
          case static_cast<std::uint8_t>(Opcode::Invoke):
          case kTopFallEdge:
            t.fall = dm.pcToTemplate[t.fallPc];
            break;
          default:
            if (isFusedBranchTop(t.op) ||
                (t.op < bytecode::kNumOpcodes &&
                 bytecode::isCondBranch(static_cast<Opcode>(t.op)))) {
                t.taken = dm.pcToTemplate[t.takenPc];
                t.fall = dm.pcToTemplate[t.fallPc];
            }
            break;
        }
    }
    for (SwitchCase &sc : dm.switchCases)
        sc.tpl = dm.pcToTemplate[sc.pc];

    // Pass 3: straighten the selected traces. Batch the whole chain's
    // cost/ninstr onto the head block's leader template (one add per
    // trace), zero the interior leaders, convert interior branches to
    // guards carrying the unexecuted-suffix refund, and interior
    // fall-through ends to direct TraceFall jumps. Runs after target
    // resolution so guard conversion never confuses pass 2's opcode
    // dispatch.
    for (const std::vector<cfg::BlockId> &chain : dm.traces) {
        std::vector<std::uint32_t> leader_tpl(chain.size());
        std::vector<std::uint32_t> member_cost(chain.size());
        std::vector<std::uint32_t> member_ninstr(chain.size());
        std::uint64_t total_cost = 0;
        std::uint64_t total_ninstr = 0;
        for (std::size_t i = 0; i < chain.size(); ++i) {
            // Members are single-segment, so the block leader's
            // template carries the whole block's sums.
            leader_tpl[i] = dm.pcToTemplate[info.cfg.firstPc[chain[i]]];
            member_cost[i] = dm.stream[leader_tpl[i]].cost;
            member_ninstr[i] = dm.stream[leader_tpl[i]].ninstr;
            total_cost += member_cost[i];
            total_ninstr += member_ninstr[i];
        }
        PEP_ASSERT_MSG(total_cost <= UINT32_MAX, "trace cost overflow");
        dm.stream[leader_tpl[0]].cost =
            static_cast<std::uint32_t>(total_cost);
        dm.stream[leader_tpl[0]].ninstr =
            static_cast<std::uint32_t>(total_ninstr);
        for (std::size_t i = 1; i < chain.size(); ++i) {
            dm.stream[leader_tpl[i]].cost = 0;
            dm.stream[leader_tpl[i]].ninstr = 0;
        }

        std::uint64_t suffix_cost = total_cost;
        std::uint64_t suffix_ninstr = total_ninstr;
        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            suffix_cost -= member_cost[i];
            suffix_ninstr -= member_ninstr[i];
            const cfg::BlockId b = chain[i];
            const bytecode::Pc end_pc = info.cfg.lastPc[b];
            const std::uint32_t end_tpl = dm.pcToTemplate[end_pc];
            if (info.cfg.terminator[b] == TerminatorKind::Cond) {
                Template &bt = dm.stream[end_tpl];
                PEP_ASSERT(bt.fuseLen == 1 &&
                           bytecode::isCondBranch(
                               static_cast<Opcode>(bt.op)));
                bt.sub = bt.op;
                bt.op = guardTopFor(static_cast<Opcode>(bt.sub));
                bt.swFirst = static_cast<std::uint32_t>(suffix_cost);
                bt.swCount = static_cast<std::uint32_t>(suffix_ninstr);
            } else {
                // The injected FallEdge directly follows the block-end
                // instruction's template in the stream.
                Template &fe = dm.stream[end_tpl + 1];
                PEP_ASSERT(fe.op == kTopFallEdge && fe.pc == end_pc);
                fe.op = kTopTraceFall;
            }
        }
    }

    return dm;
}

} // namespace pep::vm
