#include "opt/path_clone.hh"

#include <algorithm>

#include "bytecode/verifier.hh"
#include "support/panic.hh"

namespace pep::opt {

namespace {

using bytecode::Instr;
using bytecode::Opcode;
using bytecode::Pc;
using bytecode::TerminatorKind;

/** True if the `index`-th successor edge of a block with this
 *  terminator can be pointed at a new target by patching the branch
 *  instruction. Positional fall-throughs (Cond leg 1, Fallthrough)
 *  have no instruction field to patch. */
bool
anchorRetargetable(TerminatorKind kind, std::uint32_t index)
{
    switch (kind) {
    case TerminatorKind::Goto:
        return index == 0;
    case TerminatorKind::Cond:
        return index == 0; // the taken leg
    case TerminatorKind::Switch:
        return true; // any case leg or the default
    default:
        return false;
    }
}

/** Try to grow a plan whose anchor is path.edges[start]. */
std::optional<ClonePlan>
tryPlanAt(const bytecode::MethodCfg &method_cfg, const HotPath &path,
          std::size_t start)
{
    const cfg::Graph &graph = method_cfg.graph;
    const cfg::EdgeRef first = path.edges[start];
    const cfg::BlockId anchor = first.src;
    if (anchor >= graph.numBlocks() || !method_cfg.isCodeBlock(anchor))
        return std::nullopt;
    if (first.index >= graph.succs(anchor).size())
        return std::nullopt;
    if (!anchorRetargetable(method_cfg.terminator[anchor], first.index))
        return std::nullopt;
    const cfg::BlockId head = graph.edgeDst(first);
    if (!method_cfg.isCodeBlock(head) || head == anchor)
        return std::nullopt;
    if (graph.preds(head).size() < 2)
        return std::nullopt; // not a join: plain layout handles it

    ClonePlan plan;
    plan.anchor = anchor;
    plan.anchorEdgeIndex = first.index;
    plan.blocks.push_back(head);
    plan.weight = path.weight;
    for (std::size_t i = start + 1; i < path.edges.size(); ++i) {
        if (plan.blocks.size() >= kMaxPathBlocks)
            break;
        const cfg::EdgeRef e = path.edges[i];
        if (e.src != plan.blocks.back() ||
            e.index >= graph.succs(e.src).size())
            break;
        const cfg::BlockId dst = graph.edgeDst(e);
        if (!method_cfg.isCodeBlock(dst) || dst == anchor)
            break;
        // A repeated block means the path wraps a loop (k-iteration
        // paths do); the truncated plan closes the loop in the copy.
        if (std::find(plan.blocks.begin(), plan.blocks.end(), dst) !=
            plan.blocks.end())
            break;
        plan.edgeIndex.push_back(e.index);
        plan.blocks.push_back(dst);
    }
    if (plan.blocks.size() < kMinPathBlocks || plan.weight == 0)
        return std::nullopt;
    return plan;
}

} // namespace

std::optional<ClonePlan>
planFromPath(const bytecode::MethodCfg &method_cfg, const HotPath &path)
{
    // Paths often start at the method entry or a loop header reached
    // by fall-through; scan forward for the first usable anchor edge
    // (typically the back edge into the header).
    for (std::size_t s = 0; s < path.edges.size(); ++s) {
        if (auto plan = tryPlanAt(method_cfg, path, s))
            return plan;
    }
    return std::nullopt;
}

std::optional<ClonePlan>
selectClonePath(const bytecode::MethodCfg &method_cfg,
                const std::vector<std::vector<std::uint64_t>> &weights)
{
    const cfg::Graph &graph = method_cfg.graph;
    auto weight_of = [&](cfg::BlockId b, std::uint32_t i) -> std::uint64_t {
        if (b >= weights.size() || i >= weights[b].size())
            return 0;
        return weights[b][i];
    };

    // Anchor at the hottest retargetable edge into a join block.
    ClonePlan plan;
    cfg::BlockId head = cfg::kInvalidBlock;
    std::uint64_t best = 0;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        if (!method_cfg.isCodeBlock(b))
            continue;
        const auto &succs = graph.succs(b);
        for (std::uint32_t i = 0; i < succs.size(); ++i) {
            const cfg::BlockId dst = succs[i];
            if (!method_cfg.isCodeBlock(dst) || dst == b)
                continue;
            if (!anchorRetargetable(method_cfg.terminator[b], i))
                continue;
            if (graph.preds(dst).size() < 2)
                continue;
            const std::uint64_t w = weight_of(b, i);
            if (w > best) { // ties keep the lowest (block, index)
                best = w;
                plan.anchor = b;
                plan.anchorEdgeIndex = i;
                head = dst;
            }
        }
    }
    if (best == 0)
        return std::nullopt;
    plan.weight = best;
    plan.blocks.push_back(head);

    // Follow the hottest successor edge until the path repeats, goes
    // cold, or reaches the length cap.
    cfg::BlockId cur = head;
    while (plan.blocks.size() < kMaxPathBlocks) {
        const auto &succs = graph.succs(cur);
        std::uint64_t best_w = 0;
        std::uint32_t best_i = 0;
        cfg::BlockId best_dst = cfg::kInvalidBlock;
        for (std::uint32_t i = 0; i < succs.size(); ++i) {
            const std::uint64_t w = weight_of(cur, i);
            if (w > best_w) {
                best_w = w;
                best_i = i;
                best_dst = succs[i];
            }
        }
        if (best_w == 0 || best_dst == cfg::kInvalidBlock ||
            !method_cfg.isCodeBlock(best_dst) ||
            best_dst == plan.anchor ||
            std::find(plan.blocks.begin(), plan.blocks.end(), best_dst) !=
                plan.blocks.end())
            break;
        plan.edgeIndex.push_back(best_i);
        plan.blocks.push_back(best_dst);
        cur = best_dst;
    }
    if (plan.blocks.size() < kMinPathBlocks)
        return std::nullopt;
    return plan;
}

ClonedBody
buildClonedBody(const bytecode::Program &program,
                bytecode::MethodId method,
                const bytecode::MethodCfg &method_cfg,
                const ClonePlan &plan)
{
    const bytecode::Method &root = program.methods[method];
    const cfg::Graph &graph = method_cfg.graph;
    const std::size_t n = plan.blocks.size();
    PEP_ASSERT(n >= 1 && plan.edgeIndex.size() == n - 1);

    ClonedBody result;
    const Pc n0 = static_cast<Pc>(root.code.size());
    result.cloneStartPc = n0;

    // Verified code never falls off its end, so appending the clone
    // region after the last instruction cannot be reached positionally.
    PEP_ASSERT(n0 > 0 && bytecode::isTerminator(root.code[n0 - 1].op));

    const cfg::BlockId head = plan.blocks[0];
    const cfg::BlockId tail = plan.blocks[n - 1];

    // Close the copy into a private loop when the path is a cycle.
    bool close_loop = false;
    for (cfg::BlockId s : graph.succs(tail))
        if (s == head)
            close_loop = true;
    result.loopClosed = close_loop;

    // Where each block's copy will start. A copy is followed by one
    // synthesized Goto when its positional fall-through would
    // otherwise run off the path: a mid-path Cond taking its on-path
    // leg, or the final block ending in Cond or plain fall-through.
    std::vector<Pc> clone_start(n, 0);
    {
        Pc at = n0;
        for (std::size_t i = 0; i < n; ++i) {
            clone_start[i] = at;
            const cfg::BlockId b = plan.blocks[i];
            at += method_cfg.lastPc[b] - method_cfg.firstPc[b] + 1;
            const TerminatorKind kind = method_cfg.terminator[b];
            const bool last = i + 1 == n;
            if (kind == TerminatorKind::Cond &&
                (last || plan.edgeIndex[i] == 0))
                ++at;
            else if (kind == TerminatorKind::Fallthrough && last)
                ++at;
        }
    }

    auto body = std::make_unique<vm::InlinedBody>();
    bytecode::Method &out = body->method;
    out.name = root.name + "$clone";
    out.numArgs = root.numArgs;
    out.numLocals = root.numLocals;
    out.returnsValue = root.returnsValue;

    /** Original pc each synthesized instruction came from. */
    struct InstrOrigin
    {
        Pc pc = 0;
        bool valid = false;
    };
    std::vector<Instr> code = root.code;
    std::vector<InstrOrigin> origin(code.size());
    for (Pc pc = 0; pc < n0; ++pc)
        origin[pc] = {pc, true};

    // Retarget the anchor edge into the copy. Every other original
    // instruction — including the path blocks themselves — stays
    // byte-for-byte identical, so the original path remains reachable
    // from b1's other predecessors.
    {
        Instr &instr = code[method_cfg.branchPc(plan.anchor)];
        const auto target = static_cast<std::int32_t>(clone_start[0]);
        switch (method_cfg.terminator[plan.anchor]) {
        case TerminatorKind::Goto:
        case TerminatorKind::Cond:
            instr.a = target;
            break;
        case TerminatorKind::Switch:
            if (plan.anchorEdgeIndex < instr.table.size())
                instr.table[plan.anchorEdgeIndex] = target;
            else
                instr.b = target; // the default leg
            break;
        default:
            PEP_ASSERT_MSG(false, "unretargetable anchor in "
                                      << root.name);
        }
    }

    // Append the copies. On-path edges chain copy to copy; off-path
    // edges keep their original targets, so leaving the path lands in
    // original code; tail edges back to the head close the loop.
    for (std::size_t i = 0; i < n; ++i) {
        const cfg::BlockId b = plan.blocks[i];
        const TerminatorKind kind = method_cfg.terminator[b];
        const bool last = i + 1 == n;
        PEP_ASSERT(code.size() == clone_start[i]);
        for (Pc pc = method_cfg.firstPc[b]; pc <= method_cfg.lastPc[b];
             ++pc) {
            code.push_back(root.code[pc]);
            origin.push_back({pc, true});
        }

        const auto head_target =
            static_cast<std::int32_t>(clone_start[0]);
        const auto next_target = static_cast<std::int32_t>(
            last ? 0 : clone_start[i + 1]);
        const auto original_fall =
            static_cast<std::int32_t>(method_cfg.lastPc[b] + 1);
        const auto &succs = graph.succs(b);

        auto append_goto = [&](std::int32_t target) {
            code.push_back(Instr{Opcode::Goto, target, 0, {}});
            origin.push_back({0, false});
        };

        switch (kind) {
        case TerminatorKind::Goto:
            if (!last)
                code.back().a = next_target;
            else if (close_loop && succs[0] == head)
                code.back().a = head_target;
            break;
        case TerminatorKind::Cond:
            if (!last) {
                if (plan.edgeIndex[i] == 0) {
                    // On-path leg taken: chain it to the next copy and
                    // route the off-path fall-through back to original
                    // code through a synthesized Goto.
                    code.back().a = next_target;
                    append_goto(original_fall);
                }
                // On-path leg fall-through: positional into the next
                // copy; the taken leg already points at original code.
            } else {
                if (close_loop && succs[0] == head)
                    code.back().a = head_target;
                append_goto(close_loop && succs[1] == head
                                ? head_target
                                : original_fall);
            }
            break;
        case TerminatorKind::Switch: {
            Instr &instr = code.back();
            if (!last) {
                if (plan.edgeIndex[i] < instr.table.size())
                    instr.table[plan.edgeIndex[i]] = next_target;
                else
                    instr.b = next_target;
            } else if (close_loop) {
                for (std::uint32_t j = 0; j < succs.size(); ++j) {
                    if (succs[j] != head)
                        continue;
                    if (j < instr.table.size())
                        instr.table[j] = head_target;
                    else
                        instr.b = head_target;
                }
            }
            break;
        }
        case TerminatorKind::Fallthrough:
            // Mid-path: the next copy follows positionally. At the
            // tail the positional successor would be past the code,
            // so continue the original flow (or the closed loop).
            if (last)
                append_goto(close_loop && succs[0] == head
                                ? head_target
                                : original_fall);
            break;
        case TerminatorKind::Return:
            break; // returns need no fixup (and end the path anyway)
        case TerminatorKind::None:
            PEP_ASSERT_MSG(false, "pseudo block on clone path");
        }
    }

    out.code = std::move(code);
    body->rootPcMap.resize(n0);
    for (Pc pc = 0; pc < n0; ++pc)
        body->rootPcMap[pc] = pc; // original region: identity (OSR)
    body->inlinedSites = 0;

    {
        const bytecode::VerifyResult verified =
            bytecode::verifyMethod(program, out);
        PEP_ASSERT_MSG(verified.ok, "cloned body of "
                                        << root.name
                                        << " failed verification: "
                                        << verified.error);
    }

    body->info = vm::buildMethodInfo(out);
    const cfg::Graph &new_graph = body->info.cfg.graph;

    // Block origins: a block inherits the provenance of its terminator
    // instruction (the inliner's idiom) — both regions map onto the
    // original CFG, so profile folding is exact.
    body->blockOrigin.assign(new_graph.numBlocks(), vm::BlockOrigin{});
    for (cfg::BlockId b = 2; b < new_graph.numBlocks(); ++b) {
        const Pc last_pc = body->info.cfg.lastPc[b];
        if (!origin[last_pc].valid)
            continue; // synthesized Goto: no original branch identity
        body->blockOrigin[b] = vm::BlockOrigin{
            method, method_cfg.blockOfPc[origin[last_pc].pc]};
    }

    result.cloneHead = body->info.cfg.blockOfPc[clone_start[0]];

    // Pin the on-path direction of every internal branch of the copy:
    // inside the copy the continuation is known per construction, which
    // is exactly the context-sensitivity a folded edge profile cannot
    // express.
    result.forcedLayout.assign(new_graph.numBlocks(), -1);
    std::vector<std::int32_t> path_index(graph.numBlocks(), -1);
    for (std::size_t i = 0; i < n; ++i)
        path_index[plan.blocks[i]] = static_cast<std::int32_t>(i);
    for (cfg::BlockId b = 2; b < new_graph.numBlocks(); ++b) {
        if (body->info.cfg.firstPc[b] < n0)
            continue; // original region: layout comes from profiles
        const TerminatorKind kind = body->info.cfg.terminator[b];
        if (kind != TerminatorKind::Cond &&
            kind != TerminatorKind::Switch)
            continue;
        const vm::BlockOrigin &o = body->blockOrigin[b];
        if (!o.valid())
            continue;
        const std::int32_t i = path_index[o.block];
        if (i < 0)
            continue;
        std::uint32_t on_path = 0;
        bool have = false;
        if (static_cast<std::size_t>(i) + 1 < n) {
            on_path = plan.edgeIndex[static_cast<std::size_t>(i)];
            have = true;
        } else if (close_loop) {
            const auto &succs = graph.succs(tail);
            for (std::uint32_t j = 0; j < succs.size(); ++j) {
                if (succs[j] == head) {
                    on_path = j;
                    have = true;
                    break;
                }
            }
        }
        if (!have)
            continue;
        result.forcedLayout[b] =
            kind == TerminatorKind::Cond
                ? static_cast<std::int16_t>(on_path == 0 ? 1 : 0)
                : static_cast<std::int16_t>(on_path);
    }

    result.body = std::move(body);
    return result;
}

} // namespace pep::opt
