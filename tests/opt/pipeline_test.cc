/**
 * @file
 * Tests for the reoptimization pipeline (opt/pipeline.hh): the
 * CompilePass applies cloning + chain layout on a live Machine, the
 * optimized machine stays byte-identical in observable behaviour to an
 * unoptimized one under BOTH execution engines, the machine verifies
 * clean afterwards (stream proof + check 11), and PEP_OPT parsing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/verify/verify.hh"
#include "common/fixtures.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "profile/edge_profile.hh"
#include "vm/layout.hh"
#include "vm/machine.hh"

namespace {

using namespace pep;

vm::SimParams
engineParams(vm::EngineKind engine)
{
    vm::SimParams params;
    params.engine = engine;
    return params;
}

/** Ground-truth edge profile of one probe run (profile the pipeline
 *  machines feed on — a deterministic snapshot). */
profile::EdgeProfileSet
probeProfile(const bytecode::Program &program)
{
    vm::Machine probe(program, vm::SimParams{});
    probe.runIteration();
    return probe.truthEdges();
}

class PipelineEngineTest
    : public ::testing::TestWithParam<vm::EngineKind>
{
};

INSTANTIATE_TEST_SUITE_P(Engines, PipelineEngineTest,
                         ::testing::Values(vm::EngineKind::Switch,
                                           vm::EngineKind::Threaded),
                         [](const auto &info) {
                             return std::string(
                                 vm::engineKindName(info.param));
                         });

TEST_P(PipelineEngineTest, ClonesAndPreservesObservableBehaviour)
{
    const bytecode::Program program = test::simpleLoopProgram();
    const profile::EdgeProfileSet snapshot = probeProfile(program);

    // Reference: the same engine, no optimizer.
    vm::Machine plain(program, engineParams(GetParam()));
    plain.compileNow(program.mainMethod, vm::OptLevel::Opt2);

    // Optimized: cloning + chain layout fed by the probe profile.
    vm::FixedLayoutSource source(snapshot);
    opt::LayoutSourceConsumer consumer(source);
    opt::OptPipeline pipeline(consumer);
    vm::Machine piped(program, engineParams(GetParam()));
    piped.addCompilePass(&pipeline);
    piped.compileNow(program.mainMethod, vm::OptLevel::Opt2);

    ASSERT_EQ(pipeline.stats().clonesApplied, 1u)
        << "the hot loop must clone under the probe profile";
    EXPECT_GE(pipeline.stats().layoutsApplied, 1u);
    const vm::CompiledMethod *version =
        piped.currentVersion(program.mainMethod);
    ASSERT_NE(version, nullptr);
    EXPECT_TRUE(version->cloneApplied);
    ASSERT_NE(version->inlinedBody, nullptr);

    for (int it = 0; it < 3; ++it) {
        plain.runIteration();
        piped.runIteration();
    }

    // Layout and cloning are performance plans, never semantics: the
    // observable state is identical, and the bytecode-level branch
    // counts fold to exactly the same totals. (Frames running a
    // synthesized body record only Cond/Switch edges into ground
    // truth — the Section 4.3 sharing convention — so the comparison
    // is per branch block, not per edge.)
    EXPECT_EQ(plain.globals(), piped.globals());
    for (std::size_t m = 0; m < plain.numMethods(); ++m) {
        const auto method = static_cast<bytecode::MethodId>(m);
        const bytecode::MethodCfg &cfg = plain.info(method).cfg;
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            const auto kind = cfg.terminator[b];
            if (kind != bytecode::TerminatorKind::Cond &&
                kind != bytecode::TerminatorKind::Switch)
                continue;
            EXPECT_EQ(plain.truthEdges().perMethod[m].counts()[b],
                      piped.truthEdges().perMethod[m].counts()[b])
                << "method " << m << " block " << b;
        }
    }
    EXPECT_EQ(plain.stats().methodInvocations,
              piped.stats().methodInvocations);

    // The optimized machine satisfies every machine-level invariant:
    // the stream proof of the cloned version and check 11.
    analysis::DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::verifyMachine(piped, diagnostics));
    EXPECT_EQ(diagnostics.errorCount(), 0u);
}

TEST_P(PipelineEngineTest, LayoutOnlyPipelineSkipsCloning)
{
    const bytecode::Program program = test::simpleLoopProgram();
    const profile::EdgeProfileSet snapshot = probeProfile(program);

    vm::FixedLayoutSource source(snapshot);
    opt::LayoutSourceConsumer consumer(source);
    opt::PipelineOptions options;
    options.clone = false;
    opt::OptPipeline pipeline(consumer, options);

    vm::Machine machine(program, engineParams(GetParam()));
    machine.addCompilePass(&pipeline);
    machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);

    EXPECT_EQ(pipeline.stats().clonesApplied, 0u);
    EXPECT_EQ(pipeline.stats().clonesDeclined, 0u)
        << "a disabled pass must not even be attempted";
    EXPECT_GE(pipeline.stats().layoutsApplied, 1u);
    const vm::CompiledMethod *version =
        machine.currentVersion(program.mainMethod);
    ASSERT_NE(version, nullptr);
    EXPECT_FALSE(version->cloneApplied);

    // The profile-guided layout predicts some direction somewhere.
    bool predicted = false;
    for (std::int16_t direction : version->branchLayout)
        predicted = predicted || direction >= 0;
    EXPECT_TRUE(predicted);

    machine.runIteration();
    analysis::DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::verifyMachine(machine, diagnostics));
}

TEST(Pipeline, DeclinesWithoutProfileInformation)
{
    // No weights at compile time: the clone pass declines and the
    // layout pass leaves the version to the built-in predictor.
    const bytecode::Program program = test::simpleLoopProgram();
    vm::FixedLayoutSource source(profile::EdgeProfileSet{});
    opt::LayoutSourceConsumer consumer(source);
    opt::OptPipeline pipeline(consumer);

    vm::Machine machine(program, vm::SimParams{});
    machine.addCompilePass(&pipeline);
    machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);

    EXPECT_EQ(pipeline.stats().runs, 1u);
    EXPECT_EQ(pipeline.stats().clonesApplied, 0u);
    EXPECT_EQ(pipeline.stats().clonesDeclined, 1u);
    EXPECT_EQ(pipeline.stats().layoutsApplied, 0u);
    const vm::CompiledMethod *version =
        machine.currentVersion(program.mainMethod);
    ASSERT_NE(version, nullptr);
    EXPECT_FALSE(version->cloneApplied);

    machine.runIteration();
    analysis::DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::verifyMachine(machine, diagnostics));
}

TEST(PipelineOptionsEnv, ParsesPepOptVariable)
{
    const char *saved = std::getenv("PEP_OPT");
    const std::string restore = saved ? saved : "";

    unsetenv("PEP_OPT");
    EXPECT_FALSE(opt::pipelineOptionsFromEnv().has_value());

    setenv("PEP_OPT", "layout", 1);
    std::optional<opt::PipelineOptions> options =
        opt::pipelineOptionsFromEnv();
    ASSERT_TRUE(options.has_value());
    EXPECT_TRUE(options->layout);
    EXPECT_FALSE(options->clone);

    setenv("PEP_OPT", "clone", 1);
    options = opt::pipelineOptionsFromEnv();
    ASSERT_TRUE(options.has_value());
    EXPECT_FALSE(options->layout);
    EXPECT_TRUE(options->clone);

    setenv("PEP_OPT", "layout,clone", 1);
    options = opt::pipelineOptionsFromEnv();
    ASSERT_TRUE(options.has_value());
    EXPECT_TRUE(options->layout);
    EXPECT_TRUE(options->clone);

    setenv("PEP_OPT", "none", 1);
    options = opt::pipelineOptionsFromEnv();
    ASSERT_TRUE(options.has_value());
    EXPECT_FALSE(options->layout);
    EXPECT_FALSE(options->clone);

    if (saved)
        setenv("PEP_OPT", restore.c_str(), 1);
    else
        unsetenv("PEP_OPT");
}

} // namespace
