/**
 * @file
 * End-to-end integration tests: workload generation -> VM execution ->
 * PEP profiling -> metrics. These pin the central correctness claims:
 * PEP's sampled profiles are exact subsets of ground truth, and with a
 * 100% sampling rate PEP reproduces the perfect profiles exactly.
 */

#include <gtest/gtest.h>

#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/overlap.hh"
#include "metrics/path_accuracy.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep {
namespace {

workload::WorkloadSpec
smallSpec()
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    spec.outerIterations = 60;
    return spec;
}

/** Params with a fast timer so short test runs still promote methods
 *  to optimized (profiled) code. */
vm::SimParams
testParams()
{
    vm::SimParams params;
    params.tickCycles = 120'000;
    return params;
}

TEST(EndToEnd, SimpleProgramRunsAndTerminates)
{
    vm::Machine machine(test::simpleLoopProgram(), testParams());
    const std::uint64_t cycles = machine.runIteration();
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(machine.stats().instructionsExecuted, 30u);
    EXPECT_EQ(machine.stats().methodInvocations, 1u);
}

TEST(EndToEnd, WorkloadRunsUnderAdaptiveCompilation)
{
    const bytecode::Program program =
        workload::generateWorkload(smallSpec());
    vm::Machine machine(program, testParams());
    machine.runIteration();

    // Hot methods must have been promoted beyond baseline.
    std::size_t promoted = 0;
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const vm::CompiledMethod *cm = machine.currentVersion(
            static_cast<bytecode::MethodId>(m));
        if (cm && cm->level != vm::OptLevel::Baseline)
            ++promoted;
    }
    EXPECT_GT(promoted, 0u);
    EXPECT_GT(machine.stats().timerTicks, 2u);
}

/** Fixture running PEP(always) and a ground-truth recorder together
 *  under replay compilation. */
class PepVsTruth : public ::testing::Test
{
  protected:
    void
    runBoth(const bytecode::Program &program)
    {
        // Record advice with a plain adaptive run.
        const vm::SimParams params = testParams();
        vm::ReplayAdvice advice;
        {
            vm::Machine rec(program, params);
            rec.runIteration();
            advice = rec.recordAdvice();
        }

        machine = std::make_unique<vm::Machine>(program, params);
        machine->enableReplay(&advice);
        pep = std::make_unique<core::PepProfiler>(*machine, always);
        truth = std::make_unique<core::FullPathProfiler>(
            *machine, profile::DagMode::HeaderSplit,
            /*charge_costs=*/false);
        machine->addHooks(pep.get());
        machine->addCompileObserver(pep.get());
        machine->addHooks(truth.get());
        machine->addCompileObserver(truth.get());

        machine->runIteration(); // compile + warm
        pep->clearProfiles();
        truth->clearPathProfiles();
        machine->clearTruth();
        machine->runIteration(); // measured
    }

    test::AlwaysSample always;
    std::unique_ptr<vm::Machine> machine;
    std::unique_ptr<core::PepProfiler> pep;
    std::unique_ptr<core::FullPathProfiler> truth;
};

TEST_F(PepVsTruth, FullSamplingReproducesPerfectPathProfile)
{
    runBoth(workload::generateWorkload(smallSpec()));

    const metrics::CanonicalPathProfile pep_paths =
        metrics::canonicalize(*pep);
    const metrics::CanonicalPathProfile truth_paths =
        metrics::canonicalize(*truth);

    ASSERT_GT(truth_paths.paths.size(), 0u);
    ASSERT_EQ(pep_paths.paths.size(), truth_paths.paths.size());
    for (const auto &[key, entry] : truth_paths.paths) {
        const auto it = pep_paths.paths.find(key);
        ASSERT_NE(it, pep_paths.paths.end());
        EXPECT_EQ(it->second.count, entry.count);
        EXPECT_EQ(it->second.numBranches, entry.numBranches);
    }

    const metrics::WallAccuracy accuracy =
        metrics::wallPathAccuracy(truth_paths, pep_paths);
    EXPECT_DOUBLE_EQ(accuracy.accuracy, 1.0);
}

TEST_F(PepVsTruth, FullSamplingEdgeProfileMatchesGroundTruth)
{
    runBoth(workload::generateWorkload(smallSpec()));

    // For every method running at an optimizing tier, PEP's edge
    // profile (derived from sampled paths) must equal the machine's
    // ground-truth edge counts exactly.
    std::size_t compared = 0;
    for (std::size_t m = 0; m < machine->numMethods(); ++m) {
        const auto id = static_cast<bytecode::MethodId>(m);
        const vm::CompiledMethod *cm = machine->currentVersion(id);
        if (!cm || cm->level == vm::OptLevel::Baseline)
            continue;
        const auto &pep_counts = pep->edgeProfile().perMethod[m];
        const auto &truth_counts = machine->truthEdges().perMethod[m];
        EXPECT_EQ(pep_counts.counts(), truth_counts.counts())
            << "method " << m;
        ++compared;
    }
    EXPECT_GT(compared, 0u);

    const std::vector<bytecode::MethodCfg> cfgs = [&] {
        std::vector<bytecode::MethodCfg> result;
        for (std::size_t m = 0; m < machine->numMethods(); ++m) {
            result.push_back(machine->info(
                static_cast<bytecode::MethodId>(m)).cfg);
        }
        return result;
    }();
    const profile::EdgeProfileSet perfect =
        core::edgeProfileFromPaths(*machine, *truth);
    EXPECT_DOUBLE_EQ(
        metrics::relativeOverlap(cfgs, perfect, pep->edgeProfile()),
        1.0);
    EXPECT_DOUBLE_EQ(
        metrics::absoluteOverlap(perfect, pep->edgeProfile()), 1.0);
}

TEST(EndToEnd, SampledPepIsAccurateButNotExact)
{
    workload::WorkloadSpec spec = smallSpec();
    spec.outerIterations = 150;
    const bytecode::Program program = workload::generateWorkload(spec);

    const vm::SimParams params = testParams();
    vm::ReplayAdvice advice;
    {
        vm::Machine rec(program, params);
        rec.runIteration();
        advice = rec.recordAdvice();
    }

    vm::Machine machine(program, params);
    machine.enableReplay(&advice);
    core::SimplifiedArnoldGrove controller(64, 17);
    core::PepProfiler pep(machine, controller);
    core::FullPathProfiler truth(machine,
                                 profile::DagMode::HeaderSplit,
                                 /*charge_costs=*/false);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);
    machine.addHooks(&truth);
    machine.addCompileObserver(&truth);

    machine.runIteration();
    pep.clearProfiles();
    truth.clearPathProfiles();
    machine.runIteration();

    ASSERT_GT(pep.pepStats().samplesRecorded, 100u);
    EXPECT_LT(pep.pepStats().samplesRecorded,
              pep.pepStats().pathsCompleted);

    metrics::CanonicalPathProfile truth_paths =
        metrics::canonicalize(truth);
    metrics::CanonicalPathProfile pep_paths = metrics::canonicalize(pep);
    const metrics::WallAccuracy accuracy =
        metrics::wallPathAccuracy(truth_paths, pep_paths);
    EXPECT_GT(accuracy.accuracy, 0.5);
    EXPECT_GT(accuracy.numHotPaths, 0u);

    // Every sampled path must exist in ground truth with at least the
    // sampled count (samples are a subset of completions).
    for (const auto &[key, entry] : pep_paths.paths) {
        const auto it = truth_paths.paths.find(key);
        ASSERT_NE(it, truth_paths.paths.end());
        EXPECT_LE(entry.count, it->second.count);
    }
}

} // namespace
} // namespace pep
