/**
 * @file
 * Configuration-matrix test: PEP's correctness must be invariant to
 * every instrumentation configuration. For each (numbering scheme x
 * placement) combination, PEP with 100% sampling must reproduce the
 * ground-truth path profile exactly — schemes and placements change
 * where increments sit and what the numbers are, never which paths
 * are observed or how often.
 */

#include <gtest/gtest.h>

#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/path_accuracy.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep {
namespace {

struct MatrixConfig
{
    profile::NumberingScheme scheme;
    profile::PlacementKind placement;
    const char *label;
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixConfig>
{
  protected:
    static vm::SimParams
    params()
    {
        vm::SimParams p;
        p.tickCycles = 120'000;
        return p;
    }
};

TEST_P(ConfigMatrix, FullSamplingMatchesGroundTruth)
{
    workload::WorkloadSpec spec = workload::standardSuite()[3]; // db
    spec.outerIterations = 50;
    const bytecode::Program program = workload::generateWorkload(spec);

    vm::ReplayAdvice advice;
    {
        vm::Machine recorder(program, params());
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }

    vm::Machine machine(program, params());
    machine.enableReplay(&advice);

    test::AlwaysSample always;
    core::PepOptions options;
    options.scheme = GetParam().scheme;
    options.placement = GetParam().placement;
    core::PepProfiler pep(machine, always, options);
    // Ground truth uses plain Ball-Larus numbering with direct
    // placement: agreement across the matrix proves the canonical
    // (expansion-based) comparison really is numbering-independent.
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

    const auto pep_paths = metrics::canonicalize(pep);
    const auto truth_paths = metrics::canonicalize(truth);
    ASSERT_GT(truth_paths.paths.size(), 0u) << GetParam().label;
    ASSERT_EQ(pep_paths.paths.size(), truth_paths.paths.size())
        << GetParam().label;
    for (const auto &[key, entry] : truth_paths.paths) {
        const auto it = pep_paths.paths.find(key);
        ASSERT_NE(it, pep_paths.paths.end()) << GetParam().label;
        EXPECT_EQ(it->second.count, entry.count) << GetParam().label;
        EXPECT_EQ(it->second.numBranches, entry.numBranches);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndPlacements, ConfigMatrix,
    ::testing::Values(
        MatrixConfig{profile::NumberingScheme::BallLarus,
                     profile::PlacementKind::Direct, "bl_direct"},
        MatrixConfig{profile::NumberingScheme::Smart,
                     profile::PlacementKind::Direct, "smart_direct"},
        MatrixConfig{profile::NumberingScheme::SmartInverted,
                     profile::PlacementKind::Direct,
                     "inverted_direct"},
        MatrixConfig{profile::NumberingScheme::BallLarus,
                     profile::PlacementKind::SpanningTree,
                     "bl_spanning"},
        MatrixConfig{profile::NumberingScheme::Smart,
                     profile::PlacementKind::SpanningTree,
                     "smart_spanning"},
        MatrixConfig{profile::NumberingScheme::SmartInverted,
                     profile::PlacementKind::SpanningTree,
                     "inverted_spanning"}),
    [](const auto &info) { return std::string(info.param.label); });

/** The full (original) Arnold-Grove controller on a real machine. */
TEST(FullAgOnMachine, SamplesSubsetOfTruthWithMoreHandlerRuns)
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    spec.outerIterations = 120;
    const bytecode::Program program = workload::generateWorkload(spec);
    vm::SimParams params;
    params.tickCycles = 120'000;

    vm::ReplayAdvice advice;
    {
        vm::Machine recorder(program, params);
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }

    auto run = [&](bool full_ag) {
        vm::Machine machine(program, params);
        machine.enableReplay(&advice);
        std::unique_ptr<core::SamplingController> controller;
        if (full_ag) {
            controller =
                std::make_unique<core::FullArnoldGrove>(16, 5);
        } else {
            controller =
                std::make_unique<core::SimplifiedArnoldGrove>(16, 5);
        }
        auto pep = std::make_unique<core::PepProfiler>(machine,
                                                       *controller);
        machine.addHooks(pep.get());
        machine.addCompileObserver(pep.get());
        machine.runIteration();
        machine.runIteration();
        return std::pair(pep->pepStats().samplesTaken,
                         pep->pepStats().strides);
    };

    const auto [simplified_samples, simplified_strides] = run(false);
    const auto [full_samples, full_strides] = run(true);
    EXPECT_GT(full_samples, 0u);
    EXPECT_GT(simplified_samples, 0u);
    // Original AG strides before every sample: far more handler runs
    // for a comparable number of samples (Section 4.4's trade-off).
    EXPECT_GT(full_strides, simplified_strides * 3);
}

} // namespace
} // namespace pep
