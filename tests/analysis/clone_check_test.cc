/**
 * @file
 * Seeded-bug rejection tests for the clone discipline (docs/OPT.md):
 * check 11 (checkClonedBody) must reject a cloned body whose origin
 * records or rootPcMap were corrupted, and verifyMachine must run it
 * over every installed clone — and reject a version that claims a
 * clone but carries no synthesized body.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/plan_check.hh"
#include "analysis/verify/verify.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "opt/path_clone.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "vm/inliner.hh"
#include "vm/layout.hh"
#include "vm/machine.hh"

namespace {

using namespace pep;
using analysis::Diagnostic;
using analysis::DiagnosticList;
using analysis::Severity;

bool
hasError(const DiagnosticList &diagnostics, const std::string &pass,
         const std::string &check)
{
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.severity == Severity::Error && d.pass == pass &&
            d.check == check)
            return true;
    }
    return false;
}

/** Some "plan-check" error mentioning `needle`. */
bool
hasPlanCheckError(const DiagnosticList &diagnostics,
                  const std::string &needle)
{
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.severity == Severity::Error && d.pass == "plan-check" &&
            d.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** A well-formed cloned body of simpleLoopProgram's main. */
struct CloneRig
{
    bytecode::Program program = test::simpleLoopProgram();
    bytecode::MethodCfg cfg;
    opt::ClonedBody cloned;

    CloneRig()
        : cfg(bytecode::buildCfg(program.methods[program.mainMethod]))
    {
        // Hot back edge into the loop header; the greedy planner
        // anchors there (see path_clone_test).
        std::vector<std::vector<std::uint64_t>> weights(
            cfg.graph.numBlocks());
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
            weights[b].assign(cfg.graph.succs(b).size(), 0);
        cfg::BlockId header = cfg::kInvalidBlock;
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
            if (cfg.isCodeBlock(b) && cfg.isLoopHeader[b])
                header = b;
        EXPECT_NE(header, cfg::kInvalidBlock);
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            if (!cfg.isCodeBlock(b))
                continue;
            if (cfg.terminator[b] == bytecode::TerminatorKind::Goto &&
                cfg.graph.succs(b)[0] == header)
                weights[b][0] = 100;
            if (b == header) {
                weights[b][0] = 2;
                weights[b][1] = 100;
            }
        }
        const auto plan = opt::selectClonePath(cfg, weights);
        EXPECT_TRUE(plan.has_value());
        cloned = opt::buildClonedBody(program, program.mainMethod, cfg,
                                      *plan);
        EXPECT_NE(cloned.body, nullptr);
    }

    analysis::CloneCheckInput
    input() const
    {
        analysis::CloneCheckInput in;
        in.rootMethod = program.mainMethod;
        in.originalCfg = &cfg;
        in.body = cloned.body.get();
        in.methodName = "main";
        return in;
    }

    /** First clone-region Cond/Switch block of the synthesized CFG. */
    cfg::BlockId
    cloneRegionBranch() const
    {
        const bytecode::MethodCfg &synth = cloned.body->info.cfg;
        for (cfg::BlockId b = 0; b < synth.graph.numBlocks(); ++b) {
            if (!synth.isCodeBlock(b))
                continue;
            const auto kind = synth.terminator[b];
            if (synth.blockOfPc.size() > 0 &&
                (kind == bytecode::TerminatorKind::Cond ||
                 kind == bytecode::TerminatorKind::Switch)) {
                // Clone region = pcs at or above cloneStartPc.
                bool in_clone_region = false;
                for (bytecode::Pc pc = cloned.cloneStartPc;
                     pc < synth.blockOfPc.size(); ++pc)
                    in_clone_region |= synth.blockOfPc[pc] == b;
                if (in_clone_region)
                    return b;
            }
        }
        return cfg::kInvalidBlock;
    }
};

TEST(CloneCheck, AcceptsAWellFormedClone)
{
    CloneRig rig;
    DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::checkClonedBody(rig.input(), diagnostics));
    EXPECT_EQ(diagnostics.errorCount(), 0u);
}

TEST(CloneCheck, RejectsBranchBlockWithoutOrigin)
{
    CloneRig rig;
    const cfg::BlockId branch = rig.cloneRegionBranch();
    ASSERT_NE(branch, cfg::kInvalidBlock);

    rig.cloned.body->blockOrigin[branch] = vm::BlockOrigin{};
    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkClonedBody(rig.input(), diagnostics));
    EXPECT_TRUE(hasPlanCheckError(diagnostics, "no BlockOrigin"));
}

TEST(CloneCheck, RejectsOriginIntoAnotherMethod)
{
    CloneRig rig;
    const cfg::BlockId branch = rig.cloneRegionBranch();
    ASSERT_NE(branch, cfg::kInvalidBlock);

    rig.cloned.body->blockOrigin[branch].method =
        static_cast<bytecode::MethodId>(rig.program.mainMethod + 1);
    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkClonedBody(rig.input(), diagnostics));
    EXPECT_TRUE(hasPlanCheckError(diagnostics, "origin method"));
}

TEST(CloneCheck, RejectsOriginOfTheWrongShape)
{
    CloneRig rig;
    const cfg::BlockId branch = rig.cloneRegionBranch();
    ASSERT_NE(branch, cfg::kInvalidBlock);

    // Point the branch's origin at a block whose terminator kind
    // differs (a Goto/Return block): per-index counter sharing would
    // mix edges of different branches.
    const bytecode::MethodCfg &original = rig.cfg;
    cfg::BlockId wrong = cfg::kInvalidBlock;
    const auto kind =
        rig.cloned.body->info.cfg.terminator[branch];
    for (cfg::BlockId b = 0; b < original.graph.numBlocks(); ++b) {
        if (original.isCodeBlock(b) && original.terminator[b] != kind)
            wrong = b;
    }
    ASSERT_NE(wrong, cfg::kInvalidBlock);

    rig.cloned.body->blockOrigin[branch].block = wrong;
    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkClonedBody(rig.input(), diagnostics));
}

TEST(CloneCheck, RejectsCorruptRootPcMap)
{
    CloneRig rig;
    ASSERT_GE(rig.cloned.body->rootPcMap.size(), 2u);

    // Clones keep original code in place; a shifted map would make OSR
    // transfer a frame into the wrong instruction.
    rig.cloned.body->rootPcMap[1] = rig.cloned.body->rootPcMap[0];
    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkClonedBody(rig.input(), diagnostics));
    EXPECT_TRUE(hasPlanCheckError(diagnostics, "rootPcMap"));
}

/** A machine whose main was compiled with the cloning pipeline. */
struct ClonedMachineRig
{
    bytecode::Program program = test::simpleLoopProgram();
    vm::FixedLayoutSource source;
    opt::LayoutSourceConsumer consumer;
    opt::OptPipeline pipeline;
    vm::Machine machine;

    static profile::EdgeProfileSet
    probeProfile(const bytecode::Program &program)
    {
        vm::Machine probe(program, vm::SimParams{});
        probe.runIteration();
        return probe.truthEdges();
    }

    ClonedMachineRig()
        : source(probeProfile(program)), consumer(source),
          pipeline(consumer), machine(program, vm::SimParams{})
    {
        machine.addCompilePass(&pipeline);
        machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);
        EXPECT_EQ(pipeline.stats().clonesApplied, 1u);
    }

};

TEST(CloneAudit, CleanCloneVerifiesClean)
{
    ClonedMachineRig rig;
    rig.machine.runIteration();
    DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::verifyMachine(rig.machine, diagnostics));
    EXPECT_EQ(diagnostics.errorCount(), 0u);
}

/** A compile pass that claims a clone without synthesizing one. */
struct CloneFlagOnlyPass final : vm::CompilePass
{
    void
    run(vm::Machine &, vm::CompiledMethod &cm) override
    {
        cm.cloneApplied = true;
    }
};

TEST(CloneAudit, RejectsCloneFlagWithoutABody)
{
    const bytecode::Program program = test::simpleLoopProgram();
    vm::Machine machine(program, vm::SimParams{});
    CloneFlagOnlyPass pass;
    machine.addCompilePass(&pass);
    machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);

    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::verifyMachine(machine, diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "plan-check", "clone-body"));
}

} // namespace
