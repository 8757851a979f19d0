/**
 * @file
 * Machine-level tests: load/verify, adaptive promotion, replay
 * compilation, compile-cost accounting, layout decisions and their
 * runtime cost, compile observers, and the cost model.
 */

#include <gtest/gtest.h>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "support/panic.hh"
#include "vm/layout.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep::vm {
namespace {

SimParams
fastTick()
{
    SimParams params;
    params.tickCycles = 100'000;
    return params;
}

workload::WorkloadSpec
smallSpec()
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    spec.outerIterations = 80;
    return spec;
}

TEST(Machine, RejectsUnverifiableProgram)
{
    bytecode::Program p;
    bytecode::Method m;
    m.name = "main";
    m.code.push_back({bytecode::Opcode::Goto, 99, 0, {}});
    p.methods.push_back(std::move(m));
    EXPECT_THROW(Machine(p, SimParams{}), support::FatalError);
}

TEST(Machine, VerifierFailureReportsEveryDiagnostic)
{
    // Two independent verifier errors in one method: a goto to a
    // nonexistent pc, and a load from a local slot the method does
    // not have.  The fatal message must carry both, not just the
    // first — truncating to one diagnostic sends users on repeated
    // fix-one-rebuild-one round trips.
    bytecode::Program p;
    bytecode::Method m;
    m.name = "main";
    m.code.push_back({bytecode::Opcode::Goto, 99, 0, {}});
    m.code.push_back({bytecode::Opcode::Iload, 5, 0, {}});
    m.code.push_back({bytecode::Opcode::Return, 0, 0, {}});
    p.methods.push_back(std::move(m));
    try {
        Machine machine(p, SimParams{});
        FAIL() << "expected FatalError";
    } catch (const support::FatalError &err) {
        const std::string message = err.what();
        EXPECT_NE(message.find("bad goto target"), std::string::npos)
            << message;
        EXPECT_NE(message.find("local slot out of range"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("pc 0"), std::string::npos) << message;
        EXPECT_NE(message.find("pc 1"), std::string::npos) << message;
    }
}

TEST(Machine, RejectsZeroTickPeriod)
{
    // Accepted, it would spin the first yieldpoint forever.
    SimParams params;
    params.tickCycles = 0;
    EXPECT_THROW(Machine(test::simpleLoopProgram(), params),
                 support::FatalError);
}

TEST(Machine, FirstInvocationCompilesBaseline)
{
    const bytecode::Program p = test::simpleLoopProgram();
    Machine machine(p, SimParams{});
    EXPECT_EQ(machine.currentVersion(p.mainMethod), nullptr);
    machine.runIteration();
    const CompiledMethod *cm = machine.currentVersion(p.mainMethod);
    ASSERT_NE(cm, nullptr);
    EXPECT_EQ(cm->level, OptLevel::Baseline);
    EXPECT_TRUE(cm->baselineEdgeInstr);
    EXPECT_GT(machine.stats().compileCycles, 0u);
}

TEST(Machine, AdaptivePromotesHotMethods)
{
    const bytecode::Program program =
        workload::generateWorkload(smallSpec());
    Machine machine(program, fastTick());
    machine.runIteration();

    bytecode::MethodId hot0 = 0;
    ASSERT_TRUE(program.findMethod("hot_0", hot0));
    const CompiledMethod *cm = machine.currentVersion(hot0);
    ASSERT_NE(cm, nullptr);
    EXPECT_NE(cm->level, OptLevel::Baseline);
    EXPECT_GT(cm->version, 0u); // recompiled at least once

    // Cold methods stay baseline.
    bytecode::MethodId cold0 = 0;
    ASSERT_TRUE(program.findMethod("cold_0", cold0));
    EXPECT_EQ(machine.currentVersion(cold0)->level,
              OptLevel::Baseline);
}

TEST(Machine, OptTiersRunFasterThanBaseline)
{
    const bytecode::Program p = test::simpleLoopProgram();
    SimParams params;
    Machine machine(p, params);
    const CompiledMethod &baseline =
        machine.compileNow(p.mainMethod, OptLevel::Baseline);
    const CompiledMethod &opt2 =
        machine.compileNow(p.mainMethod, OptLevel::Opt2);
    const auto op =
        static_cast<std::size_t>(bytecode::Opcode::Iadd);
    EXPECT_GT(baseline.scaledCost[op], opt2.scaledCost[op]);
    EXPECT_DOUBLE_EQ(opt2.speedMultiplier, 1.0);
}

TEST(Machine, ReplayCompilesAtFinalLevelImmediately)
{
    const bytecode::Program program =
        workload::generateWorkload(smallSpec());

    ReplayAdvice advice;
    {
        Machine recorder(program, fastTick());
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }

    bytecode::MethodId hot0 = 0;
    ASSERT_TRUE(program.findMethod("hot_0", hot0));
    ASSERT_NE(advice.finalLevel[hot0], OptLevel::Baseline);

    Machine machine(program, fastTick());
    machine.enableReplay(&advice);
    machine.runIteration();

    const CompiledMethod *cm = machine.currentVersion(hot0);
    ASSERT_NE(cm, nullptr);
    EXPECT_EQ(cm->level, advice.finalLevel[hot0]);
    EXPECT_EQ(cm->version, 0u); // compiled once, directly at level
}

TEST(Machine, ReplaySecondIterationCompilesNothing)
{
    const bytecode::Program program =
        workload::generateWorkload(smallSpec());
    ReplayAdvice advice;
    {
        Machine recorder(program, fastTick());
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }
    Machine machine(program, fastTick());
    machine.enableReplay(&advice);
    machine.runIteration();
    const std::uint64_t compiles_after_first =
        machine.stats().compiles;

    // The replay harness resets ground truth between iterations, so
    // each iteration's truth counts only that iteration.
    ASSERT_GT(machine.truthEdges().totalCount(), 0u);
    machine.clearTruth();
    EXPECT_EQ(machine.truthEdges().totalCount(), 0u);

    machine.runIteration();
    EXPECT_EQ(machine.stats().compiles, compiles_after_first);
    EXPECT_GT(machine.truthEdges().totalCount(), 0u);
}

TEST(Machine, ReplayAdviceSuppliesOneTimeProfile)
{
    const bytecode::Program program =
        workload::generateWorkload(smallSpec());
    ReplayAdvice advice;
    {
        Machine recorder(program, fastTick());
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }
    Machine machine(program, fastTick());
    machine.enableReplay(&advice);
    // Before running anything, the one-time profile is pre-seeded.
    std::uint64_t total = 0;
    for (const auto &per_method : machine.oneTimeEdges().perMethod)
        total += per_method.totalCount();
    EXPECT_GT(total, 0u);
}

TEST(Machine, CompileObserverFiresForOptTiersOnly)
{
    struct Counter : CompileObserver
    {
        int optCompiles = 0;
        void
        onCompile(bytecode::MethodId, const CompiledMethod &cm) override
        {
            EXPECT_NE(cm.level, OptLevel::Baseline);
            ++optCompiles;
        }
    };
    const bytecode::Program p = test::simpleLoopProgram();
    Machine machine(p, SimParams{});
    Counter counter;
    machine.addCompileObserver(&counter);
    machine.compileNow(p.mainMethod, OptLevel::Baseline);
    EXPECT_EQ(counter.optCompiles, 0);
    machine.compileNow(p.mainMethod, OptLevel::Opt1);
    machine.compileNow(p.mainMethod, OptLevel::Opt2);
    EXPECT_EQ(counter.optCompiles, 2);
}

TEST(Machine, LayoutFollowsProfileBias)
{
    const bytecode::Program p = test::figure1Program();
    Machine machine(p, SimParams{});

    const auto &cfg = machine.info(p.mainMethod).cfg;
    profile::EdgeProfileSet profiles(
        std::vector<bytecode::MethodCfg>{cfg});
    // Bias every conditional toward taken.
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] == bytecode::TerminatorKind::Cond) {
            profiles.perMethod[0].addEdge(cfg::EdgeRef{b, 0}, 9);
            profiles.perMethod[0].addEdge(cfg::EdgeRef{b, 1}, 1);
        }
    }
    FixedLayoutSource source(std::move(profiles));
    machine.setLayoutSource(&source);

    const CompiledMethod &cm =
        machine.compileNow(p.mainMethod, OptLevel::Opt2);
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] == bytecode::TerminatorKind::Cond) {
            EXPECT_EQ(cm.layoutFor(b), 1);
        }
    }
}

TEST(Machine, BadLayoutCostsCycles)
{
    // Deterministic always-taken loop branch: a layout predicting
    // not-taken pays the penalty every iteration.
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    iconst 2000
    istore 0
loop:
    iload 0
    iinc 0 -1
    ifgt loop
    return
.end
.main main
)");
    auto run_with_bias = [&](std::uint64_t taken,
                             std::uint64_t not_taken) {
        Machine machine(p, SimParams{});
        const auto &cfg = machine.info(p.mainMethod).cfg;
        profile::EdgeProfileSet profiles(
            std::vector<bytecode::MethodCfg>{cfg});
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            if (cfg.terminator[b] == bytecode::TerminatorKind::Cond) {
                profiles.perMethod[0].addEdge(cfg::EdgeRef{b, 0},
                                              taken);
                profiles.perMethod[0].addEdge(cfg::EdgeRef{b, 1},
                                              not_taken);
            }
        }
        FixedLayoutSource source(std::move(profiles));
        machine.setLayoutSource(&source);
        ReplayAdvice advice;
        advice.finalLevel.assign(machine.numMethods(),
                                 OptLevel::Opt2);
        advice.oneTimeEdges = machine.truthEdges(); // empty shape
        machine.enableReplay(&advice);
        machine.runIteration();
        return std::pair(machine.now(),
                         machine.stats().layoutMisses);
    };

    const auto [good_cycles, good_misses] = run_with_bias(9, 1);
    const auto [bad_cycles, bad_misses] = run_with_bias(1, 9);
    EXPECT_LT(good_cycles, bad_cycles);
    EXPECT_LT(good_misses, bad_misses);
}

TEST(Machine, GlobalsPersistAcrossIterations)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 0
    iconst 0
    gload
    iconst 1
    iadd
    iconst 0
    gstore
    return
.end
.main main
)");
    Machine machine(p, SimParams{});
    machine.runIteration();
    machine.runIteration();
    machine.runIteration();
    EXPECT_EQ(machine.globals()[0], 3);
}

TEST(Machine, InitialGlobalsApplied)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 4
.data 7 8 9
.method main 0 0
    return
.end
.main main
)");
    Machine machine(p, SimParams{});
    EXPECT_EQ(machine.globals()[0], 7);
    EXPECT_EQ(machine.globals()[2], 9);
    EXPECT_EQ(machine.globals()[3], 0);
}

TEST(Machine, TimerTicksAdvanceWithCycles)
{
    const bytecode::Program program =
        workload::generateWorkload(smallSpec());
    SimParams params;
    params.tickCycles = 50'000;
    Machine machine(program, params);
    machine.runIteration();
    const std::uint64_t expected_ticks =
        machine.now() / params.tickCycles;
    // Ticks only fire at yieldpoints, so allow a small shortfall.
    EXPECT_GE(machine.stats().timerTicks, expected_ticks - 3);
    EXPECT_LE(machine.stats().timerTicks, expected_ticks + 1);
}

TEST(CostModelTest, TierMultipliersOrdered)
{
    const CostModel cost;
    EXPECT_GT(cost.baselineMultiplier, cost.opt1Multiplier);
    EXPECT_GT(cost.opt1Multiplier, 1.0);
    EXPECT_GT(cost.pathStoreHashCost, cost.pathStoreArrayCost);
    EXPECT_GT(cost.sampleHandlerCost, 0u);
    EXPECT_GE(cost.sampleHandlerCost, cost.strideHandlerCost);
}

TEST(CostModelTest, EveryOpcodeHasNonzeroCost)
{
    const CostModel cost;
    for (std::size_t i = 0; i < bytecode::kNumOpcodes; ++i) {
        EXPECT_GT(cost.instrCost(static_cast<bytecode::Opcode>(i)), 0u)
            << "opcode " << i;
    }
}

} // namespace
} // namespace pep::vm
