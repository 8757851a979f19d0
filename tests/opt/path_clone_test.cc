/**
 * @file
 * Tests for hot-path cloning (opt/path_clone.hh): plan selection from
 * edge weights and from observed hot paths, the structural contract of
 * the synthesized body (identity rootPcMap, byte-identical original
 * region except the anchor, valid BlockOrigins, pinned on-path
 * layout), and the plan-checker's check 11 accepting it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/diagnostics.hh"
#include "bytecode/assembler.hh"
#include "analysis/plan_check.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "opt/path_clone.hh"
#include "vm/inliner.hh"

namespace {

using namespace pep;

/** CFG landmarks of simpleLoopProgram's main. */
struct LoopShape
{
    bytecode::Program program;
    bytecode::MethodCfg cfg;

    cfg::BlockId header = cfg::kInvalidBlock;

    /** The `goto loop` block — the retargetable anchor into the
     *  header join. */
    cfg::BlockId backGoto = cfg::kInvalidBlock;

    /** The header's fall-through successor (the loop body). */
    cfg::BlockId body = cfg::kInvalidBlock;
};

LoopShape
loopShape()
{
    LoopShape s;
    s.program = test::simpleLoopProgram();
    s.cfg = bytecode::buildCfg(s.program.methods[s.program.mainMethod]);
    for (cfg::BlockId b = 0; b < s.cfg.graph.numBlocks(); ++b) {
        if (!s.cfg.isCodeBlock(b))
            continue;
        if (s.cfg.isLoopHeader[b])
            s.header = b;
    }
    EXPECT_NE(s.header, cfg::kInvalidBlock);
    for (cfg::BlockId b = 0; b < s.cfg.graph.numBlocks(); ++b) {
        if (s.cfg.isCodeBlock(b) &&
            s.cfg.terminator[b] == bytecode::TerminatorKind::Goto &&
            s.cfg.graph.succs(b)[0] == s.header)
            s.backGoto = b;
    }
    EXPECT_NE(s.backGoto, cfg::kInvalidBlock);
    s.body = s.cfg.graph.succs(s.header)[1]; // Cond fall-through leg
    return s;
}

/** Weights that make the back edge the hottest anchor and the
 *  header -> body continuation the hottest path. */
std::vector<std::vector<std::uint64_t>>
hotLoopWeights(const LoopShape &s)
{
    std::vector<std::vector<std::uint64_t>> weights(
        s.cfg.graph.numBlocks());
    for (cfg::BlockId b = 0; b < s.cfg.graph.numBlocks(); ++b)
        weights[b].assign(s.cfg.graph.succs(b).size(), 0);
    weights[s.backGoto][0] = 100; // anchor: goto -> header (join)
    weights[s.header][0] = 2;     // loop exit, cold
    weights[s.header][1] = 100;   // into the body, hot
    return weights;
}

TEST(PathClone, SelectsBackEdgeAnchoredPlanFromEdgeWeights)
{
    const LoopShape s = loopShape();
    const std::optional<opt::ClonePlan> plan =
        opt::selectClonePath(s.cfg, hotLoopWeights(s));

    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->anchor, s.backGoto);
    EXPECT_EQ(plan->anchorEdgeIndex, 0u);
    ASSERT_GE(plan->blocks.size(), 2u);
    EXPECT_EQ(plan->blocks[0], s.header);
    EXPECT_EQ(plan->blocks[1], s.body);
    EXPECT_EQ(plan->weight, 100u);
    EXPECT_EQ(plan->edgeIndex.size(), plan->blocks.size() - 1);
}

TEST(PathClone, PlanFromObservedHotPath)
{
    const LoopShape s = loopShape();

    // One observed loop iteration: back edge, header fall-through,
    // body branch back toward the goto block.
    opt::HotPath path;
    path.method = s.program.mainMethod;
    path.weight = 7;
    path.edges.push_back({s.backGoto, 0});
    path.edges.push_back({s.header, 1});

    const std::optional<opt::ClonePlan> plan =
        opt::planFromPath(s.cfg, path);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->anchor, s.backGoto);
    EXPECT_EQ(plan->blocks[0], s.header);
    EXPECT_EQ(plan->weight, 7u);
}

TEST(PathClone, DeclinesColdOrShortPaths)
{
    const LoopShape s = loopShape();

    // All-zero weights: nothing to anchor on.
    std::vector<std::vector<std::uint64_t>> zero(
        s.cfg.graph.numBlocks());
    for (cfg::BlockId b = 0; b < s.cfg.graph.numBlocks(); ++b)
        zero[b].assign(s.cfg.graph.succs(b).size(), 0);
    EXPECT_FALSE(opt::selectClonePath(s.cfg, zero));

    // A hot anchor whose head goes nowhere hot yields a one-block
    // path, below kMinPathBlocks.
    std::vector<std::vector<std::uint64_t>> anchor_only = zero;
    anchor_only[s.backGoto][0] = 100;
    EXPECT_FALSE(opt::selectClonePath(s.cfg, anchor_only));

    // An observed path that was never taken is cold.
    opt::HotPath never;
    never.method = s.program.mainMethod;
    never.edges.push_back({s.backGoto, 0});
    never.edges.push_back({s.header, 1});
    EXPECT_FALSE(opt::planFromPath(s.cfg, never));
    never.weight = 1;
    EXPECT_TRUE(opt::planFromPath(s.cfg, never));
}

TEST(PathClone, ClonedBodyHonoursTheStructuralContract)
{
    const LoopShape s = loopShape();
    const std::optional<opt::ClonePlan> plan =
        opt::selectClonePath(s.cfg, hotLoopWeights(s));
    ASSERT_TRUE(plan.has_value());

    const opt::ClonedBody cloned = opt::buildClonedBody(
        s.program, s.program.mainMethod, s.cfg, *plan);
    ASSERT_NE(cloned.body, nullptr);

    const bytecode::Method &root =
        s.program.methods[s.program.mainMethod];
    const bytecode::Method &out = cloned.body->method;
    const std::size_t n0 = root.code.size();

    // The clone region is appended after the unchanged original code.
    EXPECT_EQ(cloned.cloneStartPc, n0);
    EXPECT_GT(out.code.size(), n0);

    // Original region: byte-identical except the retargeted anchor.
    const bytecode::Pc anchor_pc = s.cfg.branchPc(plan->anchor);
    for (bytecode::Pc pc = 0; pc < n0; ++pc) {
        if (pc == anchor_pc)
            continue;
        EXPECT_EQ(out.code[pc].op, root.code[pc].op) << "pc " << pc;
        EXPECT_EQ(out.code[pc].a, root.code[pc].a) << "pc " << pc;
        EXPECT_EQ(out.code[pc].b, root.code[pc].b) << "pc " << pc;
    }
    EXPECT_EQ(out.code[anchor_pc].op, bytecode::Opcode::Goto);
    EXPECT_EQ(out.code[anchor_pc].a,
              static_cast<std::int32_t>(cloned.cloneStartPc));

    // OSR contract: identity rootPcMap over the original region.
    ASSERT_EQ(cloned.body->rootPcMap.size(), n0);
    for (bytecode::Pc pc = 0; pc < n0; ++pc)
        EXPECT_EQ(cloned.body->rootPcMap[pc], pc);

    // Every branch block folds onto an original block of the same
    // terminator kind; the clone head is the copy of the path head.
    const bytecode::MethodCfg &clone_cfg = cloned.body->info.cfg;
    EXPECT_EQ(clone_cfg.blockOfPc[cloned.cloneStartPc],
              cloned.cloneHead);
    for (cfg::BlockId b = 0; b < clone_cfg.graph.numBlocks(); ++b) {
        if (!clone_cfg.isCodeBlock(b))
            continue;
        const auto kind = clone_cfg.terminator[b];
        if (kind != bytecode::TerminatorKind::Cond &&
            kind != bytecode::TerminatorKind::Switch)
            continue;
        const vm::BlockOrigin &origin = cloned.body->blockOrigin[b];
        ASSERT_TRUE(origin.valid()) << "branch block " << b;
        EXPECT_EQ(origin.method, s.program.mainMethod);
        EXPECT_EQ(s.cfg.terminator[origin.block], kind);
    }

    // The on-path direction of the cloned header (a mid-path Cond
    // whose on-path leg is the fall-through) is pinned to 0; original
    // region blocks are never pinned.
    ASSERT_EQ(cloned.forcedLayout.size(),
              clone_cfg.graph.numBlocks());
    bool pinned_header_clone = false;
    for (cfg::BlockId b = 0; b < clone_cfg.graph.numBlocks(); ++b) {
        if (!clone_cfg.isCodeBlock(b))
            continue;
        if (clone_cfg.firstPc[b] < n0) {
            EXPECT_EQ(cloned.forcedLayout[b], -1)
                << "original region must stay unpinned";
            continue;
        }
        if (cloned.body->blockOrigin[b].valid() &&
            cloned.body->blockOrigin[b].block == s.header) {
            EXPECT_EQ(cloned.forcedLayout[b], 0);
            pinned_header_clone = true;
        }
    }
    EXPECT_TRUE(pinned_header_clone);

    // The plan-checker's clone audit (check 11) accepts it.
    analysis::CloneCheckInput input;
    input.rootMethod = s.program.mainMethod;
    input.originalCfg = &s.cfg;
    input.body = cloned.body.get();
    input.methodName = root.name;
    analysis::DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::checkClonedBody(input, diagnostics));
    EXPECT_EQ(diagnostics.errorCount(), 0u);
}

TEST(PathClone, CyclicPathIsClosedIntoAPrivateLoop)
{
    // A loop entered through an explicit goto: anchoring at the entry
    // goto lets the path wrap the whole loop body, whose back edge
    // then closes the copy into a private loop.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 2
.method main 0 2
    iconst 10
    istore 0
    goto loop
loop:
    iload 0
    ifle done
    iinc 1 1
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
    const bytecode::MethodCfg cfg =
        bytecode::buildCfg(program.methods[program.mainMethod]);

    cfg::BlockId header = cfg::kInvalidBlock;
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
        if (cfg.isCodeBlock(b) && cfg.isLoopHeader[b])
            header = b;
    ASSERT_NE(header, cfg::kInvalidBlock);
    cfg::BlockId entry_goto = cfg::kInvalidBlock;
    cfg::BlockId back_goto = cfg::kInvalidBlock;
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (!cfg.isCodeBlock(b) ||
            cfg.terminator[b] != bytecode::TerminatorKind::Goto ||
            cfg.graph.succs(b)[0] != header)
            continue;
        if (cfg.isLoopHeader[b] || b > header)
            back_goto = b;
        else
            entry_goto = b;
    }
    ASSERT_NE(entry_goto, cfg::kInvalidBlock);
    ASSERT_NE(back_goto, cfg::kInvalidBlock);

    std::vector<std::vector<std::uint64_t>> weights(
        cfg.graph.numBlocks());
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
        weights[b].assign(cfg.graph.succs(b).size(), 0);
    weights[entry_goto][0] = 200; // the anchor into the loop
    weights[header][0] = 2;       // exit, cold
    weights[header][1] = 100;     // into the body
    weights[back_goto][0] = 100;  // around the loop

    const std::optional<opt::ClonePlan> plan =
        opt::selectClonePath(cfg, weights);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->anchor, entry_goto);
    EXPECT_EQ(plan->blocks[0], header);
    ASSERT_NE(std::find(plan->blocks.begin(), plan->blocks.end(),
                        back_goto),
              plan->blocks.end());

    const opt::ClonedBody cloned = opt::buildClonedBody(
        program, program.mainMethod, cfg, *plan);
    ASSERT_NE(cloned.body, nullptr);
    EXPECT_TRUE(cloned.loopClosed);

    // The cloned back-goto targets the clone head, keeping
    // steady-state iterations inside the copy.
    const bytecode::MethodCfg &clone_cfg = cloned.body->info.cfg;
    bool found = false;
    for (cfg::BlockId b = 0; b < clone_cfg.graph.numBlocks(); ++b) {
        if (!clone_cfg.isCodeBlock(b) ||
            clone_cfg.firstPc[b] < cloned.cloneStartPc)
            continue;
        for (cfg::BlockId succ : clone_cfg.graph.succs(b)) {
            if (succ == cloned.cloneHead)
                found = true;
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
