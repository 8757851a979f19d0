/**
 * @file
 * Inliner tests: semantic equivalence (inlined programs compute the
 * same results), fresh-frame local semantics at call sites inside
 * loops, eligibility rules, the IR-branch -> bytecode-branch counter
 * mapping (paper Section 4.3), profiling over inlined code, and OSR
 * transfer into an inlined body.
 */

#include <gtest/gtest.h>

#include <string>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/overlap.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep::vm {
namespace {

SimParams
inliningParams(bool enable)
{
    SimParams params;
    params.tickCycles = 100'000;
    params.enableInlining = enable;
    return params;
}

/** Pin every method at Opt2 so inlined code runs from the start. */
struct OptMachine
{
    OptMachine(const bytecode::Program &program, bool inlining)
        : machine(program, inliningParams(inlining))
    {
        advice.finalLevel.assign(machine.numMethods(),
                                 OptLevel::Opt2);
        advice.oneTimeEdges = machine.truthEdges();
        machine.enableReplay(&advice);
    }

    ReplayAdvice advice;
    Machine machine;
};

/** A program whose result depends on correct call semantics. */
bytecode::Program
callHeavyProgram()
{
    return bytecode::assembleOrDie(R"(
.globals 4
.method mix 2 3 returns
    iload 0
    iload 1
    isub
    istore 2
    iload 2
    iconst 3
    imul
    ireturn
.end
.method acc 1 2 returns
    ; local 1 starts at 0 in every fresh frame; the result depends
    ; on that (regression test for inlined-local reinitialization).
    iload 1
    iload 0
    iadd
    ireturn
.end
.method main 0 3
    iconst 500
    istore 0
loop:
    iload 0
    ifle done
    iload 0
    iconst 7
    invoke mix
    istore 1
    iload 1
    invoke acc
    iconst 0
    gload
    iadd
    iconst 0
    gstore
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
}

/** `main` invokes, `sites` times, a leaf of `size` instructions. */
bytecode::Program
leafCallsProgram(std::uint32_t size, std::uint32_t sites)
{
    std::string text = ".method leaf 0 1\n";
    for (std::uint32_t i = 1; i < size; ++i)
        text += "    iinc 0 1\n";
    text += "    return\n.end\n.method main 0 0\n";
    for (std::uint32_t i = 0; i < sites; ++i)
        text += "    invoke leaf\n";
    text += "    return\n.end\n.main main\n";
    return bytecode::assembleOrDie(text);
}

TEST(Inliner, TransformsEligibleSites)
{
    const bytecode::Program program = callHeavyProgram();
    bytecode::MethodId main_id = 0;
    ASSERT_TRUE(program.findMethod("main", main_id));
    const auto body = inlineLeafCalls(program, main_id);
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->inlinedSites, 2u);
    // No Invoke survives (both callees were leaves).
    for (const auto &instr : body->method.code)
        EXPECT_NE(instr.op, bytecode::Opcode::Invoke);
    EXPECT_GT(body->method.numLocals, program.methods[main_id].numLocals);
}

TEST(Inliner, NothingToInlineReturnsNull)
{
    const bytecode::Program program = test::simpleLoopProgram();
    EXPECT_EQ(inlineLeafCalls(program, program.mainMethod), nullptr);
}

TEST(Inliner, RespectsSizeAndRecursionLimits)
{
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.method rec 0 0
    invoke rec
    return
.end
.method main 0 0
    invoke rec
    return
.end
.main main
)");
    // `rec` calls (itself), so it is not a leaf: nothing inlined.
    EXPECT_EQ(inlineLeafCalls(program, program.mainMethod), nullptr);

    // A callee of kInlineMaxCalleeSize instructions is inlined; one
    // instruction more is not.
    const bytecode::Program fits = leafCallsProgram(kInlineMaxCalleeSize, 1);
    EXPECT_NE(inlineLeafCalls(fits, fits.mainMethod), nullptr);
    const bytecode::Program too_big =
        leafCallsProgram(kInlineMaxCalleeSize + 1, 1);
    EXPECT_EQ(inlineLeafCalls(too_big, too_big.mainMethod), nullptr);

    // At most kInlineMaxSites call sites are spliced; the next one
    // stays a call.
    const bytecode::Program many = leafCallsProgram(4, kInlineMaxSites + 1);
    const auto body = inlineLeafCalls(many, many.mainMethod);
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->inlinedSites, kInlineMaxSites);
    std::size_t calls_left = 0;
    for (const auto &instr : body->method.code)
        calls_left += instr.op == bytecode::Opcode::Invoke;
    EXPECT_EQ(calls_left, 1u);
}

TEST(Inliner, SemanticEquivalence)
{
    const bytecode::Program program = callHeavyProgram();
    OptMachine plain(program, false);
    OptMachine inlined(program, true);
    plain.machine.runIteration();
    inlined.machine.runIteration();

    // Same observable result...
    EXPECT_EQ(plain.machine.globals(), inlined.machine.globals());
    // ...with fewer invocations (the calls are gone)...
    EXPECT_LT(inlined.machine.stats().methodInvocations,
              plain.machine.stats().methodInvocations);
    // ...and fewer cycles (call overhead eliminated).
    EXPECT_LT(inlined.machine.now(), plain.machine.now());
}

TEST(Inliner, SemanticEquivalenceOnSuiteWorkload)
{
    workload::WorkloadSpec spec = workload::standardSuite()[1];
    spec.outerIterations = 40;
    const bytecode::Program program = workload::generateWorkload(spec);
    OptMachine plain(program, false);
    OptMachine inlined(program, true);
    plain.machine.runIteration();
    inlined.machine.runIteration();
    EXPECT_EQ(plain.machine.globals(), inlined.machine.globals());
    EXPECT_EQ(plain.machine.stats().branchesExecuted,
              inlined.machine.stats().branchesExecuted);
}

TEST(Inliner, TruthBranchCountersMapToBytecodeBranches)
{
    // The paper's Section 4.3 rule: branches of inlined code update
    // the original bytecode branch's counters. Ground-truth branch
    // counters must therefore be identical with and without inlining.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 2
.method pick 1 1 returns
    iload 0
    iconst 1
    iand
    ifeq even
    iconst 11
    ireturn
even:
    iconst 22
    ireturn
.end
.method main 0 2
    iconst 400
    istore 0
loop:
    iload 0
    ifle done
    iload 0
    invoke pick
    istore 1
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
    OptMachine plain(program, false);
    OptMachine inlined(program, true);
    plain.machine.runIteration();
    inlined.machine.runIteration();

    bytecode::MethodId pick = 0;
    ASSERT_TRUE(program.findMethod("pick", pick));
    const auto &cfg = plain.machine.info(pick).cfg;
    bool compared = false;
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] != bytecode::TerminatorKind::Cond)
            continue;
        const auto plain_counts =
            plain.machine.truthEdges().perMethod[pick].branch(b);
        const auto inlined_counts =
            inlined.machine.truthEdges().perMethod[pick].branch(b);
        EXPECT_EQ(plain_counts.taken, inlined_counts.taken);
        EXPECT_EQ(plain_counts.notTaken, inlined_counts.notTaken);
        EXPECT_GT(plain_counts.total(), 0u);
        compared = true;
    }
    EXPECT_TRUE(compared);
}

TEST(Inliner, PepProfilesInlinedCodeAndMapsEdges)
{
    const bytecode::Program program = callHeavyProgram();
    OptMachine om(program, true);
    test::AlwaysSample always;
    core::PepProfiler pep(om.machine, always);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.runIteration();

    ASSERT_GT(pep.pepStats().samplesRecorded, 0u);

    // PEP's per-bytecode-branch counters must agree in bias with the
    // ground truth (both mapped through the same block origins).
    const auto cfgs = [&] {
        std::vector<bytecode::MethodCfg> result;
        for (std::size_t m = 0; m < om.machine.numMethods(); ++m) {
            result.push_back(om.machine.info(
                static_cast<bytecode::MethodId>(m)).cfg);
        }
        return result;
    }();
    const double overlap = metrics::relativeOverlap(
        cfgs, om.machine.truthEdges(), pep.edgeProfile());
    EXPECT_GT(overlap, 0.999);
}

TEST(Inliner, CalleeWithLoopBringsItsHeaderAlong)
{
    // Inlining a loopy callee puts a loop header inside the caller's
    // code: yieldpoints fire there, PEP paths end there, and the loop
    // still computes the right answer.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 2
.method sum_to 1 3 returns
    iconst 0
    istore 1
loop:
    iload 0
    ifle done
    iload 1
    iload 0
    iadd
    istore 1
    iinc 0 -1
    goto loop
done:
    iload 1
    ireturn
.end
.method main 0 2
    iconst 200
    istore 0
outer:
    iload 0
    ifle done
    iconst 10
    invoke sum_to
    iconst 0
    gload
    iadd
    iconst 0
    gstore
    iinc 0 -1
    goto outer
done:
    return
.end
.main main
)");
    OptMachine plain(program, false);
    OptMachine inlined(program, true);
    plain.machine.runIteration();
    inlined.machine.runIteration();
    // sum_to(10) == 55, called 200 times.
    EXPECT_EQ(plain.machine.globals()[0], 55 * 200);
    EXPECT_EQ(inlined.machine.globals()[0], 55 * 200);

    // The inlined body's CFG must contain the callee's loop header in
    // addition to the caller's.
    const CompiledMethod *cm =
        inlined.machine.currentVersion(program.mainMethod);
    ASSERT_NE(cm, nullptr);
    ASSERT_NE(cm->inlinedBody, nullptr);
    EXPECT_EQ(cm->inlinedBody->info.cfg.numLoopHeaders(), 2u);
    // And the inlined run fires more yieldpoints than calls saved.
    EXPECT_GT(inlined.machine.stats().yieldpointsExecuted, 2000u);
}

TEST(Inliner, CalleeWithSwitchAndMultipleReturns)
{
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 2
.method grade 1 1 returns
    iload 0
    tableswitch 0 dflt c0 c1 c2
c0: iconst 100
    ireturn
c1: iconst 200
    ireturn
c2: iconst 300
    ireturn
dflt:
    iconst -1
    ireturn
.end
.method main 0 2
    iconst 300
    istore 0
loop:
    iload 0
    ifle done
    iload 0
    iconst 3
    iand
    invoke grade
    iconst 0
    gload
    iadd
    iconst 0
    gstore
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
    OptMachine plain(program, false);
    OptMachine inlined(program, true);
    plain.machine.runIteration();
    inlined.machine.runIteration();
    EXPECT_EQ(plain.machine.globals()[0], inlined.machine.globals()[0]);

    // Switch case counters map back to the original bytecode switch.
    bytecode::MethodId grade = 0;
    ASSERT_TRUE(program.findMethod("grade", grade));
    const auto &cfg = plain.machine.info(grade).cfg;
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] != bytecode::TerminatorKind::Switch)
            continue;
        for (std::uint32_t i = 0; i < cfg.graph.succs(b).size();
             ++i) {
            EXPECT_EQ(plain.machine.truthEdges().perMethod[grade]
                          .edgeCount(cfg::EdgeRef{b, i}),
                      inlined.machine.truthEdges().perMethod[grade]
                          .edgeCount(cfg::EdgeRef{b, i}));
        }
    }
}

TEST(Inliner, GroundTruthPathsCoverInlinedLoops)
{
    // Path profiling over an inlined loopy callee: the header inside
    // the splice truncates paths exactly like a native loop header.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 1
.method spin 1 1 returns
loop:
    iload 0
    ifle out
    iinc 0 -1
    goto loop
out:
    iconst 1
    ireturn
.end
.method main 0 1
    iconst 50
    istore 0
outer:
    iload 0
    ifle done
    iconst 4
    invoke spin
    pop
    iinc 0 -1
    goto outer
done:
    return
.end
.main main
)");
    OptMachine om(program, true);
    core::FullPathProfiler truth(om.machine,
                                 profile::DagMode::HeaderSplit,
                                 /*charge_costs=*/false);
    om.machine.addHooks(&truth);
    om.machine.addCompileObserver(&truth);
    om.machine.runIteration();

    // Every outer iteration runs the inner loop 4 times: inner-loop
    // paths dominate the stored-path count.
    // outer: 50 iterations x (outer header path + 5 inner header
    // paths) plus entry/exit paths.
    EXPECT_GT(truth.pathsStored(), 250u);
    EXPECT_EQ(om.machine.globals()[0], 0);
}

TEST(Inliner, OsrTransfersIntoInlinedBody)
{
    // A long main loop calling a leaf: OSR promotes main mid-loop to
    // an inlined Opt tier; execution must continue correctly.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 2
.method bump 1 1 returns
    iload 0
    iconst 1
    iadd
    ireturn
.end
.method main 0 2
    iconst 120000
    istore 0
loop:
    iload 0
    ifle done
    iconst 0
    gload
    invoke bump
    iconst 0
    gstore
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
    SimParams params = inliningParams(true);
    params.enableOsr = true;
    Machine machine(program, params);
    machine.runIteration();
    EXPECT_GT(machine.stats().osrs, 0u);
    const CompiledMethod *cm =
        machine.currentVersion(program.mainMethod);
    ASSERT_NE(cm, nullptr);
    EXPECT_NE(cm->inlinedBody, nullptr);
    EXPECT_EQ(machine.globals()[0], 120000); // every bump happened
}

} // namespace
} // namespace pep::vm
