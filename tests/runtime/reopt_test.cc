/**
 * @file
 * Tests of the online reoptimization driver (opt/reopt_driver.hh):
 * fed by a windowed (EWMA) profile it applies an initial
 * profile-guided layout, detects a phase shift when the hot branch
 * direction flips, recompiles through the ordinary compile path (a
 * new version every time, never an edit of an installed one), and
 * stays quiet
 * while the window does not advance or the phase is stable. They
 * run in the `runtime`-labelled runtime_test binary, so the TSan CI
 * job (`ctest -L runtime`) selects them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/verify/verify.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "opt/reopt_driver.hh"
#include "runtime/profile_window.hh"
#include "vm/machine.hh"

namespace {

using namespace pep;

/** The non-header Cond block of figure1's main (the diamond). */
cfg::BlockId
diamondBlock(const bytecode::MethodCfg &cfg)
{
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.isCodeBlock(b) && !cfg.isLoopHeader[b] &&
            cfg.terminator[b] == bytecode::TerminatorKind::Cond)
            return b;
    }
    return cfg::kInvalidBlock;
}

/** One phase's worth of diamond weights into the window. */
void
feedPhase(runtime::WindowedProfile &window, cfg::BlockId diamond,
          std::uint64_t taken, std::uint64_t fall)
{
    window.addEdge(0, {diamond, 0}, taken);
    window.addEdge(0, {diamond, 1}, fall);
    window.advance();
}

struct ReoptRig
{
    bytecode::Program program = test::figure1Program();
    vm::Machine machine;
    runtime::WindowedProfile window;
    opt::WindowedProfileConsumer consumer;
    opt::OptPipeline pipeline;
    cfg::BlockId diamond = cfg::kInvalidBlock;

    ReoptRig()
        : machine(program, vm::SimParams{}),
          window({&machine.info(0).cfg}, /*decay=*/0.5),
          consumer(machine, window),
          pipeline(consumer,
                   // Reoptimization here is about direction flips;
                   // cloning would move the layout into a synthesized
                   // CFG and is covered by the pipeline tests.
                   [] {
                       opt::PipelineOptions options;
                       options.clone = false;
                       return options;
                   }())
    {
        machine.addCompilePass(&pipeline);
        machine.compileNow(0, vm::OptLevel::Opt2);
        diamond = diamondBlock(machine.info(0).cfg);
        EXPECT_NE(diamond, cfg::kInvalidBlock);
    }
};

TEST(RuntimeReopt, AppliesInitialLayoutOnFirstSighting)
{
    ReoptRig rig;
    opt::ReoptDriver driver(rig.machine, rig.window);

    // Nothing in the window yet: the driver has nothing to act on.
    EXPECT_EQ(driver.poll(), 0u);

    feedPhase(rig.window, rig.diamond, 90, 10);
    EXPECT_EQ(driver.poll(), 1u);
    EXPECT_EQ(driver.stats().recompiles, 1u);
    EXPECT_EQ(driver.stats().phaseShifts, 0u)
        << "the first layout is not a shift";

    const vm::CompiledMethod *version = rig.machine.currentVersion(0);
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->branchLayout[rig.diamond], 1)
        << "taken-hot phase lays the diamond out taken";
}

TEST(RuntimeReopt, NoOpWhileWindowDoesNotAdvance)
{
    ReoptRig rig;
    opt::ReoptDriver driver(rig.machine, rig.window);
    feedPhase(rig.window, rig.diamond, 90, 10);
    EXPECT_EQ(driver.poll(), 1u);

    // Same window state: polling again must do nothing.
    EXPECT_EQ(driver.poll(), 0u);
    EXPECT_EQ(driver.poll(), 0u);
    EXPECT_EQ(driver.stats().polls, 3u);
    EXPECT_EQ(driver.stats().recompiles, 1u);
}

TEST(RuntimeReopt, StablePhaseDoesNotRetrigger)
{
    ReoptRig rig;
    opt::ReoptDriver driver(rig.machine, rig.window);
    feedPhase(rig.window, rig.diamond, 90, 10);
    EXPECT_EQ(driver.poll(), 1u);

    // More of the same phase: the hot direction is unchanged, so no
    // recompile however often the window advances.
    for (int epoch = 0; epoch < 4; ++epoch) {
        feedPhase(rig.window, rig.diamond, 90, 10);
        EXPECT_EQ(driver.poll(), 0u) << "epoch " << epoch;
    }
    EXPECT_EQ(driver.stats().phaseShifts, 0u);
}

TEST(RuntimeReopt, PhaseShiftRecompilesWithTheNewLayout)
{
    ReoptRig rig;
    opt::ReoptDriver driver(rig.machine, rig.window);
    feedPhase(rig.window, rig.diamond, 90, 10);
    ASSERT_EQ(driver.poll(), 1u);
    const std::size_t versions_before = rig.machine.numVersions(0);

    // The workload flips: the EWMA window's hot direction crosses
    // over within one epoch (0.5 * 90 + 10 < 0.5 * 10 + 90).
    feedPhase(rig.window, rig.diamond, 10, 90);
    EXPECT_EQ(driver.poll(), 1u);
    EXPECT_EQ(driver.stats().phaseShifts, 1u);

    const vm::CompiledMethod *version = rig.machine.currentVersion(0);
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->branchLayout[rig.diamond], 0)
        << "fall-through-hot phase flips the diamond layout";
    EXPECT_GT(rig.machine.numVersions(0), versions_before)
        << "reoptimization must go through compile(), not mutate in "
           "place";

    // Every reoptimized version went through the ordinary compile
    // path: the machine still runs and every stream verifies clean.
    rig.machine.runIteration();
    analysis::DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::verifyMachine(rig.machine, diagnostics));
    EXPECT_EQ(diagnostics.errorCount(), 0u);
}

TEST(RuntimeReopt, WindowedConsumerMaterializesRoundedCounts)
{
    ReoptRig rig;

    EXPECT_EQ(rig.consumer.edges(0), nullptr)
        << "no weight in the window yet";

    feedPhase(rig.window, rig.diamond, 7, 3);
    const profile::MethodEdgeProfile *edges = rig.consumer.edges(0);
    ASSERT_NE(edges, nullptr);
    EXPECT_EQ(edges->counts()[rig.diamond][0], 7u);
    EXPECT_EQ(edges->counts()[rig.diamond][1], 3u);

    // After a decayed epoch the weights halve (EWMA, decay 0.5) and
    // the adapter re-materializes them rounded.
    rig.window.advance();
    const profile::MethodEdgeProfile *decayed = rig.consumer.edges(0);
    ASSERT_NE(decayed, nullptr);
    EXPECT_EQ(decayed->counts()[rig.diamond][0], 4u); // llround(3.5)
    EXPECT_EQ(decayed->counts()[rig.diamond][1], 2u); // llround(1.5)

    // Out-of-range methods are "no information", not a crash.
    EXPECT_EQ(rig.consumer.edges(57), nullptr);
}

} // namespace
