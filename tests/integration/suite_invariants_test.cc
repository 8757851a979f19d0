/**
 * @file
 * Parameterized cross-benchmark invariants: for every benchmark shape
 * in the suite (run at reduced scale), the central PEP guarantees must
 * hold regardless of workload structure:
 *
 *  - sampled paths are a subset of ground-truth completions;
 *  - PEP's edge profile is exactly the expansion of its sampled paths;
 *  - the zero-cost ground-truth recorder never perturbs timing;
 *  - spanning-tree placement and direct placement agree path-for-path.
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

class SuiteInvariants
    : public ::testing::TestWithParam<const char *>
{
  protected:
    workload::WorkloadSpec
    spec() const
    {
        workload::WorkloadSpec s = workload::suiteSpec(GetParam());
        s.outerIterations = std::min<std::uint64_t>(
            s.outerIterations, 50);
        return s;
    }

    static vm::SimParams
    params()
    {
        vm::SimParams p;
        p.tickCycles = 120'000;
        return p;
    }
};

TEST_P(SuiteInvariants, SampledPathsAreSubsetOfTruth)
{
    const bytecode::Program program =
        workload::generateWorkload(spec());
    vm::Machine machine(program, params());
    core::SimplifiedArnoldGrove controller(16, 5);
    core::PepProfiler pep(machine, controller);
    core::FullPathProfiler truth(machine,
                                 profile::DagMode::HeaderSplit,
                                 /*charge_costs=*/false);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);
    machine.addHooks(&truth);
    machine.addCompileObserver(&truth);
    machine.runIteration();
    machine.runIteration();

    metrics::CanonicalPathProfile pep_paths = metrics::canonicalize(pep);
    metrics::CanonicalPathProfile truth_paths =
        metrics::canonicalize(truth);
    ASSERT_GT(truth_paths.paths.size(), 0u);
    ASSERT_GT(pep_paths.paths.size(), 0u);
    for (const auto &[key, entry] : pep_paths.paths) {
        const auto it = truth_paths.paths.find(key);
        ASSERT_NE(it, truth_paths.paths.end())
            << "sampled a path truth never saw";
        EXPECT_LE(entry.count, it->second.count);
        EXPECT_EQ(entry.numBranches, it->second.numBranches);
    }

    // PEP's edge profile must equal the expansion of its own samples.
    EXPECT_EQ(core::edgeProfileFromPaths(machine, pep),
              pep.edgeProfile())
        << GetParam();
}

TEST_P(SuiteInvariants, GroundTruthObserverIsFree)
{
    const bytecode::Program program =
        workload::generateWorkload(spec());

    vm::Machine plain(program, params());
    const std::uint64_t c1 = plain.runIteration();

    vm::Machine observed(program, params());
    core::FullPathProfiler truth(observed,
                                 profile::DagMode::HeaderSplit,
                                 /*charge_costs=*/false);
    observed.addHooks(&truth);
    observed.addCompileObserver(&truth);
    const std::uint64_t c2 = observed.runIteration();

    EXPECT_EQ(c1, c2) << GetParam();
}

TEST_P(SuiteInvariants, PlacementChoiceIsObservationallyEquivalent)
{
    // Direct and spanning-tree placements must produce identical
    // path profiles (only instrumentation sites differ). Replay
    // pins the compile schedule so both runs profile exactly the same
    // execution (placement shifts cycle timing, which would otherwise
    // move adaptive promotion points).
    const bytecode::Program program =
        workload::generateWorkload(spec());
    vm::ReplayAdvice advice;
    {
        vm::Machine recorder(program, params());
        recorder.runIteration();
        advice = recorder.recordAdvice();
    }

    auto collect = [&](profile::PlacementKind placement) {
        vm::Machine machine(program, params());
        machine.enableReplay(&advice);
        test::AlwaysSample always;
        core::PepOptions options;
        options.placement = placement;
        core::PepProfiler pep(machine, always, options);
        machine.addHooks(&pep);
        machine.addCompileObserver(&pep);
        machine.runIteration();
        pep.clearProfiles();
        machine.runIteration();
        return metrics::canonicalize(pep);
    };

    const metrics::CanonicalPathProfile direct =
        collect(profile::PlacementKind::Direct);
    const metrics::CanonicalPathProfile spanning =
        collect(profile::PlacementKind::SpanningTree);

    ASSERT_GT(direct.paths.size(), 0u);
    ASSERT_EQ(direct.paths.size(), spanning.paths.size())
        << GetParam();
    for (const auto &[key, entry] : direct.paths) {
        const auto it = spanning.paths.find(key);
        ASSERT_NE(it, spanning.paths.end()) << GetParam();
        EXPECT_EQ(entry.count, it->second.count) << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, SuiteInvariants,
    ::testing::Values("compress", "jess", "db", "javac", "mtrt",
                      "pseudojbb", "antlr", "pmd", "ps", "xalan"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

} // namespace
} // namespace pep
