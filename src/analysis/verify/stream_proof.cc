#include "analysis/verify/stream_proof.hh"

#include <sstream>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "support/panic.hh"
#include "vm/compiled_method.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

using bytecode::Opcode;
using bytecode::TerminatorKind;

/** Caps repeated same-kind findings so a broken stream stays readable. */
constexpr std::size_t kMaxPerCategory = 8;

/**
 * The abstract effect of leaving a basic block through one successor:
 * which dense flat-edge id the profilers see, where control lands, and
 * whether the transfer fires loop-header events. Derived independently
 * from the bytecode (reference semantics, what the switch engine does)
 * and from the template stream (what the threaded engine does); the
 * two must agree memberwise.
 */
struct ExitEffect
{
    std::uint32_t flatId = 0;
    bool toExit = false;       ///< method exit (Return/Ireturn)
    bytecode::Pc targetPc = 0; ///< meaningful when !toExit
    bool headerEvent = false;  ///< target is a loop-header leader
};

class StreamProof
{
  public:
    StreamProof(const TemplateCheckInput &input,
                DiagnosticList &diagnostics)
        : in_(input), diags_(diagnostics), cfg_(input.info->cfg),
          code_(*input.code), cm_(*input.cm), dm_(*input.decoded)
    {
    }

    bool
    run()
    {
        const std::size_t before = diags_.errorCount();
        if (!checkShape())
            return diags_.errorCount() == before;
        checkEdgeBase();
        checkPcMap();
        checkFallEdges();
        if (!checkFusionMode())
            return diags_.errorCount() == before;
        checkTraceTables();
        checkFusedTemplates();
        sumTemplateCharges();
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            if (cfg_.isCodeBlock(b))
                checkBlock(b);
        }
        checkTraces();
        return diags_.errorCount() == before;
    }

  private:
    // ---- reporting helpers -------------------------------------------

    Diagnostic &
    stamp(Diagnostic &d, const char *check)
    {
        d.check = check;
        d.hasVersion = in_.version.has_value();
        d.version = in_.version.value_or(0);
        return d;
    }

    void
    error(const char *check, const std::string &message)
    {
        stamp(diags_.report(Severity::Error, "engine-equiv",
                            in_.methodName, message),
              check);
    }

    void
    errorAtPc(const char *check, bytecode::Pc pc,
              const std::string &message)
    {
        stamp(diags_.reportAtPc(Severity::Error, "engine-equiv",
                                in_.methodName, pc, message),
              check);
    }

    void
    errorAtEdge(const char *check, cfg::EdgeRef edge,
                const std::string &message)
    {
        stamp(diags_.reportAtEdge(Severity::Error, "engine-equiv",
                                  in_.methodName, edge, message),
              check);
    }

    /** Report unless the category already hit its cap. */
    bool
    capped(std::size_t &counter)
    {
        if (counter == kMaxPerCategory) {
            stamp(diags_.report(Severity::Note, "engine-equiv",
                                in_.methodName,
                                "further findings of this kind "
                                "suppressed"),
                  "capped");
        }
        return counter++ >= kMaxPerCategory;
    }

    // ---- prerequisites ------------------------------------------------

    /** The pc->template map must cover the code and stay in bounds,
     *  and every template must name a code block; everything below
     *  indexes through them. */
    bool
    checkShape()
    {
        const std::size_t n = code_.code.size();
        if (dm_.pcToTemplate.size() != n) {
            std::ostringstream os;
            os << "pcToTemplate has " << dm_.pcToTemplate.size()
               << " entries for " << n << " instructions";
            error("stream-shape", os.str());
            return false;
        }
        for (bytecode::Pc pc = 0; pc < n; ++pc) {
            if (dm_.pcToTemplate[pc] >= dm_.stream.size()) {
                std::ostringstream os;
                os << "pcToTemplate[" << pc << "] = "
                   << dm_.pcToTemplate[pc] << " is out of the stream's "
                   << dm_.stream.size() << " templates";
                error("stream-shape", os.str());
                return false;
            }
        }
        for (const vm::Template &t : dm_.stream) {
            if (t.block >= cfg_.graph.numBlocks() ||
                !cfg_.isCodeBlock(t.block)) {
                std::ostringstream os;
                os << "template at pc " << t.pc << " names block "
                   << t.block << ", which holds no code";
                error("stream-shape", os.str());
                return false;
            }
        }
        return true;
    }

    /** Every template carries its block's base in the CFG's flat
     *  edge numbering — the ids every enabled plan's flatEdgeActions
     *  are indexed by. */
    void
    checkEdgeBase()
    {
        std::size_t mismatches = 0;
        for (const vm::Template &t : dm_.stream) {
            const std::uint32_t base = cfg_.edgeBase[t.block];
            if (t.flatBase != base && !capped(mismatches)) {
                std::ostringstream os;
                os << "template at pc " << t.pc << " carries flat base "
                   << t.flatBase << " for block " << t.block
                   << ", whose base is " << base;
                errorAtPc("edge-base", t.pc, os.str());
            }
        }
    }

    /** Every pc maps to a template that re-encodes exactly that
     *  instruction — its opcode (or a fused/guard top covering it),
     *  its block, and the version's branch layout. */
    void
    checkPcMap()
    {
        std::size_t mismatches = 0;
        std::size_t layouts = 0;
        for (bytecode::Pc pc = 0; pc < code_.code.size(); ++pc) {
            const vm::Template &t = dm_.stream[dm_.pcToTemplate[pc]];
            bool op_ok;
            if (vm::isFusedTop(t.op)) {
                op_ok = t.pc <= pc && pc < t.pc + t.fuseLen;
            } else if (vm::isGuardTop(t.op)) {
                op_ok = t.pc == pc && vm::branchOpcodeOfTop(t.op) ==
                                          code_.code[pc].op;
            } else {
                op_ok = t.pc == pc &&
                        t.op == static_cast<std::uint8_t>(
                                    code_.code[pc].op);
            }
            const cfg::BlockId block = cfg_.blockOfPc[pc];
            if ((!op_ok || t.block != block) && !capped(mismatches)) {
                std::ostringstream os;
                os << "template for pc " << pc
                   << " disagrees with the instruction it pre-decodes "
                      "(stale translation?)";
                errorAtPc("pc-map", pc, os.str());
            }
            if (t.layout != cm_.layoutFor(block) && !capped(layouts)) {
                std::ostringstream os;
                os << "template for pc " << pc << " bakes layout "
                   << t.layout << " but the version's is "
                   << cm_.layoutFor(block) << " (stale translation?)";
                errorAtPc("layout", pc, os.str());
            }
        }
    }

    /** Injected fall-through boundaries fire their block's single
     *  CFG edge. */
    void
    checkFallEdges()
    {
        std::size_t mismatches = 0;
        for (const vm::Template &t : dm_.stream) {
            if (t.op != vm::kTopFallEdge && t.op != vm::kTopTraceFall)
                continue;
            if (cfg_.graph.succs(t.block).size() != 1 &&
                !capped(mismatches)) {
                std::ostringstream os;
                os << "fall-edge template at pc " << t.pc
                   << " fires edge " << t.flatBase << " but block "
                   << t.block << " has "
                   << cfg_.graph.succs(t.block).size() << " successors";
                errorAtPc("control-exit", t.pc, os.str());
            }
        }
    }

    // ---- fusion -------------------------------------------------------

    /** Synthetic tops appear only under the fusion selection that
     *  produces them, and so do trace tables. */
    bool
    checkFusionMode()
    {
        for (const vm::Template &t : dm_.stream) {
            if (vm::isFusedTop(t.op) && !dm_.fuse.pairs) {
                errorAtPc("fuse-mode", t.pc,
                          "fused superinstruction present without "
                          "fuse.pairs");
                return false;
            }
            if ((vm::isGuardTop(t.op) || t.op == vm::kTopTraceFall) &&
                !dm_.fuse.traces) {
                errorAtPc("fuse-mode", t.pc,
                          "trace template present without fuse.traces");
                return false;
            }
        }
        if (!dm_.fuse.traces && !dm_.traces.empty()) {
            error("fuse-mode", "trace table present without fuse.traces");
            return false;
        }
        return true;
    }

    bool
    inTrace(cfg::BlockId b) const
    {
        return tracesUsable_ && dm_.blockTrace[b] >= 0;
    }

    /** traces / blockTrace must describe each other, and the chains
     *  must be exactly what selection derives from (code, layout,
     *  fuse), before the charge comparisons lean on them. */
    void
    checkTraceTables()
    {
        tracesUsable_ = false;
        if (dm_.blockTrace.size() != cfg_.graph.numBlocks()) {
            std::ostringstream os;
            os << "blockTrace has " << dm_.blockTrace.size()
               << " entries for " << cfg_.graph.numBlocks() << " blocks";
            error("trace-shape", os.str());
            return;
        }
        std::vector<std::int32_t> expect(cfg_.graph.numBlocks(), -1);
        for (std::size_t ti = 0; ti < dm_.traces.size(); ++ti) {
            for (cfg::BlockId b : dm_.traces[ti]) {
                if (b >= cfg_.graph.numBlocks() || expect[b] != -1) {
                    std::ostringstream os;
                    os << "trace " << ti << " member block " << b
                       << " is out of range or already in a trace";
                    error("trace-shape", os.str());
                    return;
                }
                expect[b] = static_cast<std::int32_t>(ti);
            }
        }
        if (dm_.blockTrace != expect) {
            error("trace-shape",
                  "blockTrace disagrees with the trace table");
            return;
        }
        const std::vector<std::vector<cfg::BlockId>> want =
            vm::selectTraces(code_, *in_.info, cm_, dm_.fuse);
        if (dm_.traces != want) {
            std::ostringstream os;
            os << "trace table holds " << dm_.traces.size()
               << " chains but selection derives " << want.size()
               << " (stale or tampered trace selection)";
            error("trace-selection", os.str());
            return;
        }
        tracesUsable_ = true;
    }

    /** Every fused template is the fusion-menu match at its pc, covers
     *  exactly its constituent pcs, stays inside one segment and burns
     *  in the constituents' operands; every guard is the conditional
     *  branch at an interior predicted-fall-through trace exit. */
    void
    checkFusedTemplates()
    {
        const std::size_t n = code_.code.size();

        // Segment leaders: block leaders plus post-Invoke resume points
        // (the fusion barrier).
        std::vector<bool> seg_leader(n, false);
        if (n > 0)
            seg_leader[0] = true;
        for (bytecode::Pc pc = 0; pc < n; ++pc) {
            if (in_.info->leaderPc[pc])
                seg_leader[pc] = true;
            if (code_.code[pc].op == Opcode::Invoke && pc + 1 < n)
                seg_leader[pc + 1] = true;
        }

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < dm_.stream.size(); ++i) {
            const vm::Template &t = dm_.stream[i];
            if (vm::isFusedTop(t.op)) {
                const vm::FusionMatch m = vm::matchFusion(code_, t.pc);
                if (m.top != t.op || m.len != t.fuseLen ||
                    m.sub != t.sub) {
                    if (!capped(mismatches)) {
                        std::ostringstream os;
                        os << "fused template at pc " << t.pc << " (top "
                           << static_cast<unsigned>(t.op)
                           << ") is not the fusion-menu match for its "
                              "constituents";
                        errorAtPc("fusion", t.pc, os.str());
                    }
                    continue;
                }
                bool span_ok = t.pc + t.fuseLen <= n;
                for (std::uint8_t j = 0; span_ok && j < t.fuseLen; ++j) {
                    if (dm_.pcToTemplate[t.pc + j] != i ||
                        cfg_.blockOfPc[t.pc + j] != t.block ||
                        (j > 0 && seg_leader[t.pc + j]))
                        span_ok = false;
                }
                if (!span_ok) {
                    if (!capped(mismatches)) {
                        std::ostringstream os;
                        os << "fused template at pc " << t.pc
                           << " crosses a segment boundary or its "
                              "constituent pcs do not map back to it";
                        errorAtPc("fusion", t.pc, os.str());
                    }
                    continue;
                }
                // Operand burn-in (see Template field notes).
                bool ops_ok = t.a == code_.code[t.pc].a;
                if (t.fuseLen == 3 || t.op == vm::kTopConstStore ||
                    t.op == vm::kTopLoadStore || t.op == vm::kTopLoadLoad)
                    ops_ok = ops_ok && t.b == code_.code[t.pc + 1].a;
                if (vm::isFusedBranchTop(t.op)) {
                    const bytecode::Pc last = t.pc + t.fuseLen - 1;
                    ops_ok = ops_ok &&
                             t.takenPc == static_cast<bytecode::Pc>(
                                              code_.code[last].a) &&
                             t.fallPc == last + 1;
                }
                if (!ops_ok && !capped(mismatches)) {
                    std::ostringstream os;
                    os << "fused template at pc " << t.pc
                       << " burned in operands that disagree with its "
                          "constituent instructions";
                    errorAtPc("fusion", t.pc, os.str());
                }
            } else if (vm::isGuardTop(t.op)) {
                const Opcode want_op = vm::branchOpcodeOfTop(t.op);
                if (t.fuseLen != 1 || t.pc >= n ||
                    code_.code[t.pc].op != want_op ||
                    t.sub != static_cast<std::uint8_t>(want_op)) {
                    if (!capped(mismatches)) {
                        std::ostringstream os;
                        os << "guard template at pc " << t.pc
                           << " does not encode the branch instruction "
                              "at that pc";
                        errorAtPc("fusion", t.pc, os.str());
                    }
                    continue;
                }
                // Guards exist only at interior exits of a trace whose
                // layout predicts fall-through.
                const bool interior =
                    inTrace(t.block) &&
                    dm_.traces[static_cast<std::size_t>(
                                   dm_.blockTrace[t.block])]
                            .back() != t.block &&
                    cfg_.lastPc[t.block] == t.pc;
                if ((!interior || cm_.layoutFor(t.block) == 1) &&
                    !capped(mismatches)) {
                    std::ostringstream os;
                    os << "guard template at pc " << t.pc
                       << " is not an interior predicted-fall-through "
                          "trace exit";
                    errorAtPc("fusion", t.pc, os.str());
                }
            }
        }
    }

    // ---- charges ------------------------------------------------------

    /** Segment charges are folded onto segment-leader templates, and a
     *  segment never crosses a block boundary (every block leader is a
     *  segment leader), so summing per owning block is exact. Trace
     *  batching moves whole-block sums onto the trace head, so blocks
     *  inside a trace are compared at trace granularity by
     *  checkTraces() instead. */
    void
    sumTemplateCharges()
    {
        tplCost_.assign(cfg_.graph.numBlocks(), 0);
        tplNinstr_.assign(cfg_.graph.numBlocks(), 0);
        fallEdgeTpl_.assign(cfg_.graph.numBlocks(), -1);
        for (std::size_t i = 0; i < dm_.stream.size(); ++i) {
            const vm::Template &t = dm_.stream[i];
            tplCost_[t.block] += t.cost;
            tplNinstr_[t.block] += t.ninstr;
            if ((t.op == vm::kTopFallEdge || t.op == vm::kTopTraceFall) &&
                fallEdgeTpl_[t.block] < 0)
                fallEdgeTpl_[t.block] = static_cast<std::int64_t>(i);
        }
    }

    /** The switch engine's cost of one block (scaled per-instruction
     *  sums). */
    std::uint64_t
    refBlockCost(cfg::BlockId b) const
    {
        std::uint64_t cost = 0;
        for (bytecode::Pc pc = cfg_.firstPc[b]; pc <= cfg_.lastPc[b];
             ++pc) {
            cost += cm_.scaledCost[static_cast<std::size_t>(
                code_.code[pc].op)];
        }
        return cost;
    }

    /**
     * Trace-granularity charge equivalence: the head carries the whole
     * chain's switch-engine cost, interior blocks carry zero, every
     * interior guard's stashed refund equals the switch-engine cost of
     * the unexecuted suffix — so a mispredicted exit leaves the clock
     * exactly where per-instruction charging would have — and every
     * interior fall-through end is a TraceFall template.
     */
    void
    checkTraces()
    {
        if (!tracesUsable_)
            return;
        for (std::size_t ti = 0; ti < dm_.traces.size(); ++ti) {
            const std::vector<cfg::BlockId> &chain = dm_.traces[ti];
            std::uint64_t total_cost = 0;
            std::uint64_t total_ninstr = 0;
            std::vector<std::uint64_t> member_cost(chain.size());
            std::vector<std::uint64_t> member_ninstr(chain.size());
            for (std::size_t i = 0; i < chain.size(); ++i) {
                member_cost[i] = refBlockCost(chain[i]);
                member_ninstr[i] =
                    cfg_.lastPc[chain[i]] - cfg_.firstPc[chain[i]] + 1;
                total_cost += member_cost[i];
                total_ninstr += member_ninstr[i];
            }
            const cfg::BlockId head = chain[0];
            if ((tplCost_[head] != total_cost ||
                 tplNinstr_[head] != total_ninstr) &&
                !capped(costMismatches_)) {
                std::ostringstream os;
                os << "trace " << ti << " head block " << head
                   << " charges " << tplCost_[head] << " cycles / "
                   << tplNinstr_[head]
                   << " instructions but the chain's bytecode cost is "
                   << total_cost << " / " << total_ninstr;
                errorAtPc("trace-cost", cfg_.firstPc[head], os.str());
            }
            std::uint64_t suffix_cost = total_cost;
            std::uint64_t suffix_ninstr = total_ninstr;
            for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
                suffix_cost -= member_cost[i];
                suffix_ninstr -= member_ninstr[i];
                const cfg::BlockId b = chain[i + 1];
                if ((tplCost_[b] != 0 || tplNinstr_[b] != 0) &&
                    !capped(costMismatches_)) {
                    std::ostringstream os;
                    os << "trace " << ti << " interior block " << b
                       << " still charges " << tplCost_[b]
                       << " cycles (interior charges must be batched "
                          "onto the head)";
                    errorAtPc("trace-cost", cfg_.firstPc[b], os.str());
                }
                const cfg::BlockId exit_block = chain[i];
                const bytecode::Pc end_pc = cfg_.lastPc[exit_block];
                const std::uint32_t end_tpl = dm_.pcToTemplate[end_pc];
                if (cfg_.terminator[exit_block] != TerminatorKind::Cond) {
                    // The TraceFall boundary directly follows the
                    // block-end instruction's template.
                    const bool tf_ok =
                        end_tpl + 1 < dm_.stream.size() &&
                        dm_.stream[end_tpl + 1].op == vm::kTopTraceFall &&
                        dm_.stream[end_tpl + 1].block == exit_block;
                    if (!tf_ok && !capped(costMismatches_)) {
                        std::ostringstream os;
                        os << "interior fall-through end of trace " << ti
                           << " at pc " << end_pc
                           << " is not a TraceFall template";
                        errorAtPc("trace-guard", end_pc, os.str());
                    }
                    continue;
                }
                const vm::Template &gt = dm_.stream[end_tpl];
                if (!vm::isGuardTop(gt.op)) {
                    std::ostringstream os;
                    os << "trace " << ti << " interior branch of block "
                       << exit_block
                       << " is not a guard template (top "
                       << static_cast<unsigned>(gt.op) << ")";
                    errorAtPc("trace-guard", end_pc, os.str());
                    continue;
                }
                if ((gt.swFirst != suffix_cost ||
                     gt.swCount != suffix_ninstr) &&
                    !capped(costMismatches_)) {
                    std::ostringstream os;
                    os << "guard of block " << exit_block
                       << " refunds " << gt.swFirst << " cycles / "
                       << gt.swCount
                       << " instructions but the unexecuted suffix "
                          "costs "
                       << suffix_cost << " / " << suffix_ninstr;
                    errorAtPc("trace-guard", end_pc, os.str());
                }
            }
        }
    }

    // ---- one block ----------------------------------------------------

    void
    checkBlock(cfg::BlockId b)
    {
        const bytecode::Pc first = cfg_.firstPc[b];
        const bytecode::Pc last = cfg_.lastPc[b];
        const bytecode::Instr &term = code_.code[last];

        // Cycle charges and instruction counts. The switch engine
        // charges scaledCost per instruction; the threaded engine
        // charges the folded sums. Equal per block => equal on every
        // execution (both engines execute whole blocks between edges).
        if (!inTrace(b)) {
            const std::uint64_t ref_cost = refBlockCost(b);
            const std::uint64_t ref_ninstr = last - first + 1;
            if ((ref_cost != tplCost_[b] || ref_ninstr != tplNinstr_[b]) &&
                !capped(costMismatches_)) {
                std::ostringstream os;
                os << "block " << b << " segment charges sum to "
                   << tplCost_[b] << " cycles / " << tplNinstr_[b]
                   << " instructions but its code costs " << ref_cost
                   << " / " << ref_ninstr;
                errorAtPc("segment-cost", first, os.str());
            }
        }

        // Reference (bytecode) exits.
        std::vector<ExitEffect> ref;
        const TerminatorKind kind = cfg_.terminator[b];
        switch (kind) {
          case TerminatorKind::Cond:
            ref.push_back(refExit(b, 0, static_cast<bytecode::Pc>(term.a)));
            ref.push_back(refExit(b, 1, last + 1));
            break;
          case TerminatorKind::Switch: {
            for (std::size_t i = 0; i < term.table.size(); ++i) {
                ref.push_back(refExit(
                    b, static_cast<std::uint32_t>(i),
                    static_cast<bytecode::Pc>(term.table[i])));
            }
            ref.push_back(refExit(
                b, static_cast<std::uint32_t>(term.table.size()),
                static_cast<bytecode::Pc>(term.b)));
            break;
          }
          case TerminatorKind::Goto:
            ref.push_back(refExit(b, 0, static_cast<bytecode::Pc>(term.a)));
            break;
          case TerminatorKind::Return: {
            ExitEffect e;
            e.flatId = cfg_.edgeBase[b];
            e.toExit = true;
            ref.push_back(e);
            break;
          }
          case TerminatorKind::Fallthrough:
            ref.push_back(refExit(b, 0, last + 1));
            break;
          case TerminatorKind::None:
            return; // not a code block; filtered by the caller
        }

        // The CFG the profilers index by must agree with the bytecode
        // the engines execute (successor lists in convention order).
        checkCfgShape(b, ref);

        // Template exits, plus the baseline read on branches.
        std::vector<ExitEffect> tpl;
        if (!templateExits(b, kind, term, tpl))
            return; // shape errors already reported

        if (ref.size() != tpl.size()) {
            std::ostringstream os;
            os << "block " << b << " has " << ref.size()
               << " bytecode exits but " << tpl.size()
               << " template exits";
            errorAtPc("control-exit", last, os.str());
            return;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            compareExit(b, static_cast<std::uint32_t>(i), ref[i],
                        tpl[i]);
        }
    }

    ExitEffect
    refExit(cfg::BlockId b, std::uint32_t index, bytecode::Pc target)
    {
        ExitEffect e;
        e.flatId = cfg_.flatEdgeId({b, index});
        e.targetPc = target;
        e.headerEvent = target < in_.info->headerLeaderPc.size() &&
                        in_.info->headerLeaderPc[target];
        return e;
    }

    /** Successor lists must mirror the bytecode's target order — the
     *  flat ids both engines fire are positions in these lists. */
    void
    checkCfgShape(cfg::BlockId b, const std::vector<ExitEffect> &ref)
    {
        const auto &succs = cfg_.graph.succs(b);
        if (succs.size() != ref.size()) {
            std::ostringstream os;
            os << "block " << b << " has " << succs.size()
               << " CFG successors but " << ref.size()
               << " bytecode exits";
            errorAtPc("cfg-shape", cfg_.lastPc[b], os.str());
            return;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (ref[i].toExit)
                continue; // Return's successor is the synthetic exit
            const cfg::BlockId target_block =
                cfg_.blockOfPc[ref[i].targetPc];
            if (succs[i] != target_block && !capped(cfgMismatches_)) {
                std::ostringstream os;
                os << "successor " << i << " of block " << b << " is "
                   << succs[i] << " but the bytecode targets pc "
                   << ref[i].targetPc << " in block " << target_block;
                errorAtEdge("cfg-shape",
                            {b, static_cast<std::uint32_t>(i)},
                            os.str());
            }
        }
    }

    /** The dispatch must land on the target pc's template, and the
     *  header hooks it fires must name the target pc's block. */
    void
    checkTransfer(cfg::BlockId b, std::uint32_t target_tpl,
                  bytecode::Pc target_pc, cfg::BlockId target_block,
                  const char *what)
    {
        if (target_pc >= code_.code.size()) {
            if (!capped(transferMismatches_)) {
                std::ostringstream os;
                os << what << " of block " << b << " targets pc "
                   << target_pc << ", outside the code";
                errorAtPc("control-exit", cfg_.lastPc[b], os.str());
            }
            return;
        }
        if ((target_tpl != dm_.pcToTemplate[target_pc] ||
             target_block != cfg_.blockOfPc[target_pc]) &&
            !capped(transferMismatches_)) {
            std::ostringstream os;
            os << what << " of block " << b
               << " does not resolve to pc " << target_pc
               << "'s template (dispatches to template " << target_tpl
               << " in block " << target_block << ", pc " << target_pc
               << " lives at template " << dm_.pcToTemplate[target_pc]
               << ")";
            errorAtPc("control-exit", cfg_.lastPc[b], os.str());
        }
    }

    /** Build the template stream's exits for one block and check the
     *  terminator template's baseline read. Returns false when the
     *  stream's shape around the terminator is too broken to compare
     *  exits. */
    bool
    templateExits(cfg::BlockId b, TerminatorKind kind,
                  const bytecode::Instr &term, std::vector<ExitEffect> &out)
    {
        const bytecode::Pc last = cfg_.lastPc[b];
        const vm::Template &tt = dm_.stream[dm_.pcToTemplate[last]];
        // A fused template spans fuseLen constituent pcs starting at
        // its pc; the terminator must be one of them.
        if (!(tt.pc <= last && last < tt.pc + tt.fuseLen) ||
            tt.block != b) {
            std::ostringstream os;
            os << "terminator template of block " << b
               << " carries pc " << tt.pc << " block " << tt.block;
            errorAtPc("control-exit", last, os.str());
            return false;
        }

        const auto push = [&](std::uint32_t index, bytecode::Pc pc,
                              bool header) {
            ExitEffect e;
            e.flatId = tt.flatBase + index;
            e.targetPc = pc;
            e.headerEvent = header;
            out.push_back(e);
        };

        switch (kind) {
          case TerminatorKind::Cond: {
            // Acceptable forms: the plain conditional-branch template,
            // a fused compare-and-branch superinstruction, or (inside
            // a trace) a guard — all carry the same exit fields.
            const bool plain_cond =
                tt.op < bytecode::kNumOpcodes &&
                bytecode::isCondBranch(static_cast<Opcode>(tt.op));
            if (!plain_cond && !vm::isGuardTop(tt.op) &&
                !vm::isFusedBranchTop(tt.op)) {
                errorAtPc("control-exit", last,
                          "terminator template is not a conditional "
                          "branch");
                return false;
            }
            checkBaselineRead(tt, last);
            push(0, tt.takenPc, tt.flags & vm::kTplTakenHeader);
            push(1, tt.fallPc, tt.flags & vm::kTplFallHeader);
            checkTransfer(b, tt.taken, tt.takenPc, tt.takenBlock,
                          "taken exit");
            checkTransfer(b, tt.fall, tt.fallPc, tt.fallBlock,
                          "fall exit");
            return true;
          }
          case TerminatorKind::Switch: {
            if (static_cast<Opcode>(tt.op) != Opcode::Tableswitch) {
                errorAtPc("control-exit", last,
                          "terminator template is not a Tableswitch");
                return false;
            }
            checkBaselineRead(tt, last);
            if (tt.a != term.a) {
                std::ostringstream os;
                os << "switch low bound " << tt.a
                   << " != bytecode's " << term.a;
                errorAtPc("control-exit", last, os.str());
            }
            if (tt.swCount != term.table.size()) {
                std::ostringstream os;
                os << "switch template has " << tt.swCount
                   << " cases, bytecode has " << term.table.size();
                errorAtPc("control-exit", last, os.str());
                return false;
            }
            const std::size_t end = static_cast<std::size_t>(tt.swFirst) +
                                    tt.swCount + 1;
            if (end > dm_.switchCases.size()) {
                errorAtPc("control-exit", last,
                          "switch-case slice is out of bounds");
                return false;
            }
            for (std::uint32_t i = 0; i <= tt.swCount; ++i) {
                const vm::SwitchCase &sc =
                    dm_.switchCases[tt.swFirst + i];
                push(i, sc.pc, sc.isHeader != 0);
                checkTransfer(b, sc.tpl, sc.pc, sc.block, "switch exit");
            }
            return true;
          }
          case TerminatorKind::Goto:
            push(0, tt.takenPc, tt.flags & vm::kTplTakenHeader);
            checkTransfer(b, tt.taken, tt.takenPc, tt.takenBlock,
                          "goto exit");
            return true;
          case TerminatorKind::Return: {
            ExitEffect e;
            e.flatId = tt.flatBase;
            e.toExit = true;
            out.push_back(e);
            return true;
          }
          case TerminatorKind::Fallthrough: {
            if (static_cast<Opcode>(tt.op) == Opcode::Invoke) {
                // Invoke ends the block: its template fires the edge.
                if (!(tt.flags & vm::kTplEndsBlock)) {
                    errorAtPc("control-exit", last,
                              "block-ending Invoke template lacks "
                              "kTplEndsBlock: the threaded engine "
                              "would fire no block-end edge");
                    return false;
                }
                push(0, tt.fallPc, tt.flags & vm::kTplFallHeader);
                checkTransfer(b, tt.fall, tt.fallPc, tt.fallBlock,
                              "invoke fall");
                return true;
            }
            // Plain fall-through: the injected FallEdge template.
            if (fallEdgeTpl_[b] < 0) {
                errorAtPc("control-exit", last,
                          "fall-through block has no FallEdge "
                          "template: the threaded engine would fire "
                          "no block-end edge");
                return false;
            }
            const vm::Template &fe = dm_.stream[static_cast<std::size_t>(
                fallEdgeTpl_[b])];
            ExitEffect e;
            e.flatId = fe.flatBase;
            e.targetPc = fe.fallPc;
            e.headerEvent = fe.flags & vm::kTplFallHeader;
            out.push_back(e);
            checkTransfer(b, fe.fall, fe.fallPc, fe.fallBlock,
                          "fall edge");
            return true;
          }
          case TerminatorKind::None:
            return false;
        }
        return false;
    }

    /** The one-time-instrumentation flag the threaded engine baked
     *  into a Cond/Switch terminator must equal the version's, so
     *  baseline edge counters fire identically. */
    void
    checkBaselineRead(const vm::Template &tt, bytecode::Pc last)
    {
        const bool tpl_baseline = tt.flags & vm::kTplBaselineEdge;
        if (tpl_baseline != cm_.baselineEdgeInstr &&
            !capped(baselineMismatches_)) {
            std::ostringstream os;
            os << "template baseline-edge flag "
               << (tpl_baseline ? "set" : "clear")
               << " but the version's baselineEdgeInstr is "
               << (cm_.baselineEdgeInstr ? "true" : "false");
            errorAtPc("baseline", last, os.str());
        }
    }

    void
    compareExit(cfg::BlockId b, std::uint32_t index,
                const ExitEffect &ref, const ExitEffect &tpl)
    {
        if (ref.flatId != tpl.flatId && !capped(exitMismatches_)) {
            std::ostringstream os;
            os << "flat edge id " << tpl.flatId
               << " under the threaded engine but " << ref.flatId
               << " under switch dispatch";
            errorAtEdge("control-exit", {b, index}, os.str());
        }
        if (ref.toExit != tpl.toExit && !capped(exitMismatches_)) {
            errorAtEdge("control-exit", {b, index},
                        "one engine leaves the method, the other "
                        "transfers");
            return;
        }
        if (!ref.toExit && ref.targetPc != tpl.targetPc &&
            !capped(exitMismatches_)) {
            std::ostringstream os;
            os << "threaded engine transfers to pc " << tpl.targetPc
               << ", switch dispatch to pc " << ref.targetPc;
            errorAtEdge("control-exit", {b, index}, os.str());
        }
        if (ref.headerEvent != tpl.headerEvent &&
            !capped(headerMismatches_)) {
            std::ostringstream os;
            os << "loop-header events "
               << (tpl.headerEvent ? "fire" : "do not fire")
               << " under the threaded engine but "
               << (ref.headerEvent ? "fire" : "do not fire")
               << " under switch dispatch";
            errorAtEdge("yieldpoint", {b, index}, os.str());
        }
    }

    const TemplateCheckInput &in_;
    DiagnosticList &diags_;
    const bytecode::MethodCfg &cfg_;
    const bytecode::Method &code_;
    const vm::CompiledMethod &cm_;
    const vm::DecodedMethod &dm_;

    std::vector<std::uint64_t> tplCost_;
    std::vector<std::uint64_t> tplNinstr_;
    std::vector<std::int64_t> fallEdgeTpl_;
    bool tracesUsable_ = false;

    std::size_t costMismatches_ = 0;
    std::size_t cfgMismatches_ = 0;
    std::size_t transferMismatches_ = 0;
    std::size_t baselineMismatches_ = 0;
    std::size_t exitMismatches_ = 0;
    std::size_t headerMismatches_ = 0;
};

} // namespace

vm::CompiledMethod
canonicalVersion(const bytecode::MethodCfg &cfg)
{
    vm::CompiledMethod cm;
    cm.level = vm::OptLevel::Opt2;
    const vm::CostModel cost;
    cm.scaledCost.resize(bytecode::kNumOpcodes);
    for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
        cm.scaledCost[op] =
            cost.instrCost(static_cast<bytecode::Opcode>(op));
    cm.branchLayout.assign(cfg.graph.numBlocks(), -1);
    return cm;
}

bool
checkTemplateStream(const TemplateCheckInput &input,
                    DiagnosticList &diagnostics)
{
    PEP_ASSERT(input.code && input.info && input.cm && input.decoded);
    StreamProof proof(input, diagnostics);
    return proof.run();
}

bool
checkTemplateStreams(const bytecode::Method &code,
                     const vm::MethodInfo &info,
                     const vm::CompiledMethod *cm,
                     std::span<const vm::FuseOptions> fuses,
                     const std::string &method_name,
                     std::optional<std::uint32_t> version,
                     DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    const vm::CompiledMethod canonical = canonicalVersion(info.cfg);
    const vm::CompiledMethod &version_cm = cm ? *cm : canonical;
    for (const vm::FuseOptions &fuse : fuses) {
        const vm::DecodedMethod decoded =
            vm::translateMethod(code, info, version_cm, fuse);
        TemplateCheckInput input;
        input.code = &code;
        input.info = &info;
        input.cm = &version_cm;
        input.decoded = &decoded;
        input.methodName = method_name;
        input.version = version;
        checkTemplateStream(input, diagnostics);
    }
    return diagnostics.errorCount() == before;
}

} // namespace pep::analysis
