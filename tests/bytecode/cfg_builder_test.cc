/**
 * @file
 * Bytecode -> CFG builder tests: leader identification, block extents,
 * the documented successor ordering (taken first, switch cases then
 * default, return -> exit), loop-header detection, edge cases like
 * branches to the fall-through and parallel switch targets, and the
 * flat edge numbering every plan and template indexes by.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "opt/path_clone.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"

namespace pep::bytecode {
namespace {

const Method &
methodOf(const Program &program, const std::string &name)
{
    MethodId id = 0;
    EXPECT_TRUE(program.findMethod(name, id));
    return program.methods[id];
}

TEST(CfgBuilder, StraightLineIsOneBlock)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    iconst 1
    istore 0
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    // entry, exit, one code block
    EXPECT_EQ(cfg.graph.numBlocks(), 3u);
    const cfg::BlockId b = cfg.blockOfPc[0];
    EXPECT_EQ(cfg.firstPc[b], 0u);
    EXPECT_EQ(cfg.lastPc[b], 2u);
    EXPECT_EQ(cfg.terminator[b], TerminatorKind::Return);
    ASSERT_EQ(cfg.graph.succs(b).size(), 1u);
    EXPECT_EQ(cfg.graph.succs(b)[0], cfg.graph.exit());
    EXPECT_EQ(cfg.numLoopHeaders(), 0u);
    EXPECT_TRUE(cfg.reducible);
}

TEST(CfgBuilder, CondBranchSuccessorOrder)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    iconst 0
    ifeq taken
    iinc 0 1
taken:
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    const cfg::BlockId branch_block = cfg.blockOfPc[1];
    EXPECT_EQ(cfg.terminator[branch_block], TerminatorKind::Cond);
    EXPECT_EQ(cfg.branchPc(branch_block), 1u);
    const auto &succs = cfg.graph.succs(branch_block);
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], cfg.blockOfPc[3]); // taken target first
    EXPECT_EQ(succs[1], cfg.blockOfPc[2]); // fall-through second
}

TEST(CfgBuilder, BranchToFallthroughYieldsParallelEdges)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    iconst 0
    ifeq next
next:
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    const cfg::BlockId branch_block = cfg.blockOfPc[1];
    const auto &succs = cfg.graph.succs(branch_block);
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], succs[1]); // both edges reach the same block
}

TEST(CfgBuilder, SwitchSuccessorsCasesThenDefault)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    iconst 1
    tableswitch 0 dflt c0 c1
c0: return
c1: return
dflt:
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    const cfg::BlockId sw = cfg.blockOfPc[1];
    EXPECT_EQ(cfg.terminator[sw], TerminatorKind::Switch);
    const auto &succs = cfg.graph.succs(sw);
    ASSERT_EQ(succs.size(), 3u);
    EXPECT_EQ(succs[0], cfg.blockOfPc[2]);
    EXPECT_EQ(succs[1], cfg.blockOfPc[3]);
    EXPECT_EQ(succs[2], cfg.blockOfPc[4]); // default last
}

TEST(CfgBuilder, SwitchWithDuplicateTargets)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    iconst 1
    tableswitch 0 shared shared shared
shared:
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    const cfg::BlockId sw = cfg.blockOfPc[1];
    ASSERT_EQ(cfg.graph.succs(sw).size(), 3u); // parallel edges kept
}

TEST(CfgBuilder, FallthroughBlockSplitAtBranchTarget)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    iconst 0
    ifeq target
    iinc 0 1
target:
    iinc 0 2
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    const cfg::BlockId fall = cfg.blockOfPc[2];
    EXPECT_EQ(cfg.terminator[fall], TerminatorKind::Fallthrough);
    ASSERT_EQ(cfg.graph.succs(fall).size(), 1u);
    EXPECT_EQ(cfg.graph.succs(fall)[0], cfg.blockOfPc[3]);
}

TEST(CfgBuilder, LoopHeaderDetected)
{
    const Program p = test::simpleLoopProgram();
    const MethodCfg cfg = buildCfg(p.methods[p.mainMethod]);
    EXPECT_EQ(cfg.numLoopHeaders(), 1u);
    EXPECT_TRUE(cfg.reducible);
    ASSERT_EQ(cfg.backEdges.size(), 1u);
    const cfg::BlockId header =
        cfg.graph.edgeDst(cfg.backEdges[0]);
    EXPECT_TRUE(cfg.isLoopHeader[header]);
    // The header starts at the branch target of the loop's goto.
    EXPECT_EQ(cfg.firstPc[header], 2u);
}

TEST(CfgBuilder, EntryEdgeToFirstBlock)
{
    const Program p = test::figure1Program();
    const MethodCfg cfg = buildCfg(p.methods[p.mainMethod]);
    ASSERT_EQ(cfg.graph.succs(cfg.graph.entry()).size(), 1u);
    EXPECT_EQ(cfg.graph.succs(cfg.graph.entry())[0],
              cfg.blockOfPc[0]);
    EXPECT_TRUE(cfg.graph.validate().empty());
}

TEST(CfgBuilder, EveryPcMappedToItsBlock)
{
    const Program p = test::callSwitchProgram();
    for (const Method &method : p.methods) {
        const MethodCfg cfg = buildCfg(method);
        for (Pc pc = 0; pc < method.code.size(); ++pc) {
            const cfg::BlockId b = cfg.blockOfPc[pc];
            ASSERT_NE(b, cfg::kInvalidBlock);
            EXPECT_GE(pc, cfg.firstPc[b]);
            EXPECT_LE(pc, cfg.lastPc[b]);
        }
    }
}

TEST(CfgBuilder, DeadCodeBecomesUnreachableBlock)
{
    const Program p = assembleOrDie(R"(
.method main 0 1
    goto end
    iinc 0 1
end:
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    const cfg::DfsResult dfs = cfg::depthFirstSearch(cfg.graph);
    EXPECT_FALSE(dfs.reachable[cfg.blockOfPc[1]]);
}

TEST(CfgBuilder, NestedLoopsHaveTwoHeaders)
{
    const Program p = assembleOrDie(R"(
.method main 0 2
    iconst 3
    istore 0
outer:
    iload 0
    ifle done
    iconst 2
    istore 1
inner:
    iload 1
    ifle outer_tail
    iinc 1 -1
    goto inner
outer_tail:
    iinc 0 -1
    goto outer
done:
    return
.end
.main main
)");
    const MethodCfg cfg = buildCfg(methodOf(p, "main"));
    EXPECT_EQ(cfg.numLoopHeaders(), 2u);
    EXPECT_EQ(cfg.backEdges.size(), 2u);
    EXPECT_TRUE(cfg.reducible);
}

TEST(CfgBuilder, RandomStructuredProgramsAreReducible)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const Program p = test::randomStructuredProgram(seed, 8);
        const MethodCfg cfg = buildCfg(p.methods[0]);
        EXPECT_TRUE(cfg.reducible) << "seed " << seed;
        EXPECT_TRUE(cfg.graph.validate().empty()) << "seed " << seed;
    }
}

/** edgeBase holds the prefix sums of the per-block successor counts,
 *  so flatEdgeId numbers the edges densely in (src, index) order. */
void
expectFlatEdgeNumbering(const MethodCfg &cfg, const std::string &what)
{
    const cfg::Graph &graph = cfg.graph;
    ASSERT_EQ(cfg.edgeBase.size(), graph.numBlocks() + 1) << what;
    EXPECT_EQ(cfg.edgeBase[0], 0u) << what;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        EXPECT_EQ(cfg.edgeBase[b + 1],
                  cfg.edgeBase[b] + graph.succs(b).size())
            << what << ", block " << b;
    }
    EXPECT_EQ(cfg.edgeBase.back(), graph.numEdges()) << what;
}

TEST(CfgBuilder, EdgeBaseIsSuccessorPrefixSum)
{
    std::size_t methods = 0;
    for (const auto &[name, text] : test::readPepasmFiles(
             std::filesystem::path(PEP_SOURCE_DIR) / "examples" /
             "programs")) {
        const Program program = assembleOrDie(text);
        for (const Method &method : program.methods) {
            expectFlatEdgeNumbering(buildCfg(method),
                                    name + ": " + method.name);
            ++methods;
        }
    }
    EXPECT_GT(methods, 0u);

    // The inliner and the cloning pass build their synthesized bodies'
    // CFGs with the same builder.
    const Program calls = test::callSwitchProgram();
    const std::unique_ptr<vm::InlinedBody> inlined =
        vm::inlineLeafCalls(calls, calls.mainMethod);
    ASSERT_NE(inlined, nullptr);
    expectFlatEdgeNumbering(inlined->info.cfg, "inlined body");

    const Program loop = test::simpleLoopProgram();
    vm::Machine probe(loop, vm::SimParams{});
    probe.runIteration();
    const MethodCfg &loop_cfg = probe.info(loop.mainMethod).cfg;
    const std::optional<opt::ClonePlan> plan = opt::selectClonePath(
        loop_cfg, probe.truthEdges().perMethod[loop.mainMethod].counts());
    ASSERT_TRUE(plan.has_value());
    const opt::ClonedBody cloned =
        opt::buildClonedBody(loop, loop.mainMethod, loop_cfg, *plan);
    ASSERT_NE(cloned.body, nullptr);
    expectFlatEdgeNumbering(cloned.body->info.cfg, "cloned body");
}

} // namespace
} // namespace pep::bytecode
