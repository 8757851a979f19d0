/**
 * @file
 * Tests for the Section 3.2 alternative yieldpoint placement: loop
 * yieldpoints on back edges rather than headers. With matching
 * back-edge path truncation, PEP's semantics become exactly classic
 * BLPP's, and full-rate sampling must reproduce the back-edge ground
 * truth perfectly.
 */

#include <gtest/gtest.h>

#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/path_accuracy.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep::vm {
namespace {

/** Counts yieldpoints by kind. */
class KindCounter final : public ExecutionHooks
{
  public:
    void
    onYieldpoint(const FrameView &, YieldpointKind kind, bool) override
    {
        ++counts[static_cast<std::size_t>(kind)];
    }

    std::array<std::uint64_t, 4> counts{};
};

SimParams
backEdgeParams()
{
    SimParams params;
    params.tickCycles = 120'000;
    params.yieldpointsOnBackEdges = true;
    return params;
}

TEST(BackEdgeYieldpoints, PlacementReplacesHeaderYieldpoints)
{
    const bytecode::Program program = test::simpleLoopProgram();

    KindCounter default_counter;
    {
        SimParams params;
        params.tickCycles = 120'000;
        Machine machine(program, params);
        machine.addHooks(&default_counter);
        machine.runIteration();
    }
    KindCounter back_counter;
    {
        Machine machine(program, backEdgeParams());
        machine.addHooks(&back_counter);
        machine.runIteration();
    }

    using K = YieldpointKind;
    // Default placement: headers, no back-edge yieldpoints.
    EXPECT_GT(default_counter.counts[std::size_t(K::LoopHeader)], 5u);
    EXPECT_EQ(default_counter.counts[std::size_t(K::BackEdge)], 0u);
    // Alternative placement: the reverse.
    EXPECT_EQ(back_counter.counts[std::size_t(K::LoopHeader)], 0u);
    EXPECT_GT(back_counter.counts[std::size_t(K::BackEdge)], 5u);
    // Entry/exit yieldpoints unaffected.
    EXPECT_EQ(back_counter.counts[std::size_t(K::MethodEntry)],
              default_counter.counts[std::size_t(K::MethodEntry)]);
    // The loop runs 10 times: 10 header yieldpoints (one per
    // iteration incl. the exit test) vs 9 back-edge ones.
    EXPECT_EQ(back_counter.counts[std::size_t(K::BackEdge)] + 1,
              default_counter.counts[std::size_t(K::LoopHeader)]);
}

TEST(BackEdgeYieldpoints, PepBlppModeMatchesGroundTruthExactly)
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    spec.outerIterations = 50;
    const bytecode::Program program = workload::generateWorkload(spec);

    const SimParams params = backEdgeParams();
    ReplayAdvice advice;
    {
        Machine recorder(program, params);
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }

    Machine machine(program, params);
    machine.enableReplay(&advice);
    test::AlwaysSample always;
    core::PepOptions options;
    options.mode = profile::DagMode::BackEdgeTruncate;
    core::PepProfiler pep(machine, always, options);
    core::FullPathProfiler truth(machine,
                                 profile::DagMode::BackEdgeTruncate,
                                 /*charge_costs=*/false);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);
    machine.addHooks(&truth);
    machine.addCompileObserver(&truth);

    machine.runIteration();
    pep.clearProfiles();
    truth.clearPathProfiles();
    machine.runIteration();

    const auto pep_paths = metrics::canonicalize(pep);
    const auto truth_paths = metrics::canonicalize(truth);
    ASSERT_GT(truth_paths.paths.size(), 0u);
    ASSERT_EQ(pep_paths.paths.size(), truth_paths.paths.size());
    for (const auto &[key, entry] : truth_paths.paths) {
        const auto it = pep_paths.paths.find(key);
        ASSERT_NE(it, pep_paths.paths.end());
        EXPECT_EQ(it->second.count, entry.count);
    }
}

TEST(BackEdgeYieldpoints, OsrIsInertUnderBackEdgePlacement)
{
    // OSR transfers frames at loop-header yieldpoints; under back-edge
    // placement those never fire, so OSR must simply never trigger
    // (and certainly not crash) rather than fire at an unsafe point.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 2
    iconst 60000
    istore 0
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
    SimParams params = backEdgeParams();
    params.enableOsr = true;
    Machine machine(program, params);
    machine.runIteration();
    EXPECT_EQ(machine.stats().osrs, 0u);
    EXPECT_EQ(machine.currentVersion(0)->level, OptLevel::Baseline);
}

TEST(BackEdgeYieldpoints, SampledAccuracyComparableAcrossPlacements)
{
    workload::WorkloadSpec spec = workload::standardSuite()[4];
    spec.outerIterations = 120;
    const bytecode::Program program = workload::generateWorkload(spec);

    auto accuracy = [&](bool back_edges) {
        SimParams params;
        params.tickCycles = 120'000;
        params.yieldpointsOnBackEdges = back_edges;
        ReplayAdvice advice;
        {
            Machine recorder(program, params);
            recorder.runIteration();
            advice = recorder.recordAdvice();
        }
        Machine machine(program, params);
        machine.enableReplay(&advice);
        core::SimplifiedArnoldGrove controller(64, 17);
        core::PepOptions options;
        options.mode = back_edges ? profile::DagMode::BackEdgeTruncate
                                  : profile::DagMode::HeaderSplit;
        core::PepProfiler pep(machine, controller, options);
        core::FullPathProfiler truth(machine, options.mode,
                                     /*charge_costs=*/false);
        machine.addHooks(&pep);
        machine.addCompileObserver(&pep);
        machine.addHooks(&truth);
        machine.addCompileObserver(&truth);
        machine.runIteration();
        pep.clearProfiles();
        truth.clearPathProfiles();
        machine.runIteration();
        auto truth_paths = metrics::canonicalize(truth);
        auto pep_paths = metrics::canonicalize(pep);
        return metrics::wallPathAccuracy(truth_paths, pep_paths)
            .accuracy;
    };

    const double header_acc = accuracy(false);
    const double back_acc = accuracy(true);
    // Both placements produce usable profiles; the paper calls the
    // difference minor.
    EXPECT_GT(header_acc, 0.6);
    EXPECT_GT(back_acc, 0.6);
    EXPECT_NEAR(header_acc, back_acc, 0.25);
}

} // namespace
} // namespace pep::vm
