/**
 * @file
 * On-stack replacement tests: a frame stuck in a long-running loop is
 * promoted mid-execution at a loop-header yieldpoint; path profilers
 * rebind cleanly thanks to header splitting.
 */

#include <gtest/gtest.h>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/path_accuracy.hh"
#include "vm/machine.hh"

namespace pep::vm {
namespace {

/** One long-running main loop: never returns until the very end, so
 *  without OSR it would stay at baseline the whole run. */
bytecode::Program
longLoopProgram()
{
    return bytecode::assembleOrDie(R"(
.globals 1
.method main 0 2
    iconst 200000
    istore 0
loop:
    iload 0
    ifle done
    irnd
    iconst 1
    iand
    ifeq skip
    iinc 1 1
skip:
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
}

SimParams
osrParams(bool enable)
{
    SimParams params;
    params.tickCycles = 100'000;
    params.enableOsr = enable;
    return params;
}

TEST(Osr, PromotesLongRunningFrameMidLoop)
{
    Machine machine(longLoopProgram(), osrParams(true));
    machine.runIteration();
    EXPECT_GT(machine.stats().osrs, 0u);
    const CompiledMethod *cm = machine.currentVersion(0);
    ASSERT_NE(cm, nullptr);
    EXPECT_NE(cm->level, OptLevel::Baseline);
}

TEST(Osr, DisabledByDefault)
{
    Machine machine(longLoopProgram(), osrParams(false));
    machine.runIteration();
    EXPECT_EQ(machine.stats().osrs, 0u);
    // Without OSR, main never gets a second invocation: still baseline.
    EXPECT_EQ(machine.currentVersion(0)->level, OptLevel::Baseline);
}

TEST(Osr, SpeedsUpLongRunningLoops)
{
    Machine without(longLoopProgram(), osrParams(false));
    Machine with(longLoopProgram(), osrParams(true));
    const std::uint64_t slow = without.runIteration();
    const std::uint64_t fast = with.runIteration();
    // The loop runs ~200k iterations; optimized code more than pays
    // for the extra compile.
    EXPECT_LT(fast, slow);
}

TEST(Osr, PathProfilersRebindExactly)
{
    // PEP(always) and a free ground-truth recorder across an OSR: the
    // two must stay in perfect agreement, and profiling must cover the
    // post-OSR portion of the loop.
    const bytecode::Program program = longLoopProgram();
    Machine machine(program, osrParams(true));
    test::AlwaysSample always;
    core::PepProfiler pep(machine, always);
    core::FullPathProfiler truth(machine,
                                 profile::DagMode::HeaderSplit,
                                 /*charge_costs=*/false);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);
    machine.addHooks(&truth);
    machine.addCompileObserver(&truth);
    machine.runIteration();

    ASSERT_GT(machine.stats().osrs, 0u);
    ASSERT_GT(truth.pathsStored(), 100'000u); // covered after OSR

    const auto pep_paths = metrics::canonicalize(pep);
    const auto truth_paths = metrics::canonicalize(truth);
    ASSERT_EQ(pep_paths.paths.size(), truth_paths.paths.size());
    for (const auto &[key, entry] : truth_paths.paths) {
        const auto it = pep_paths.paths.find(key);
        ASSERT_NE(it, pep_paths.paths.end());
        EXPECT_EQ(it->second.count, entry.count);
    }
}

TEST(Osr, BackEdgeModeProfilerStopsGracefully)
{
    // A classic-BLPP engine cannot rebind mid-path; it must drop the
    // frame without corrupting counts or crashing.
    const bytecode::Program program = longLoopProgram();
    Machine machine(program, osrParams(true));
    core::FullPathProfiler blpp(machine,
                                profile::DagMode::BackEdgeTruncate,
                                /*charge_costs=*/false);
    machine.addHooks(&blpp);
    machine.addCompileObserver(&blpp);
    machine.runIteration();
    ASSERT_GT(machine.stats().osrs, 0u);
    // Counts exist only if a post-OSR invocation happened (none here),
    // so zero stored paths is acceptable — the point is no panic and
    // a clean second iteration.
    machine.runIteration();
    EXPECT_GT(blpp.pathsStored(), 0u); // second invocation is opt'd
}

TEST(Osr, RepeatedPromotionsReachTopTier)
{
    // Opt1 first, then Opt2 via a second OSR within the same frame.
    SimParams params = osrParams(true);
    params.opt1SampleThreshold = 1;
    params.opt2SampleThreshold = 3;
    Machine machine(longLoopProgram(), params);
    machine.runIteration();
    EXPECT_GE(machine.stats().osrs, 2u);
    EXPECT_EQ(machine.currentVersion(0)->level, OptLevel::Opt2);
}

} // namespace
} // namespace pep::vm
