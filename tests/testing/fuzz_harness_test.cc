/**
 * @file
 * Self-tests of the differential fuzzing harness: the generator emits
 * verifier-clean programs covering the hard shapes, the differ is
 * clean on healthy profilers across the standard config matrix, fault
 * injection is caught, and the shrinker reduces a failing program to a
 * smaller one that still fails.
 */

#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "bytecode/cfg_builder.hh"
#include "bytecode/instr.hh"
#include "bytecode/verifier.hh"
#include "support/panic.hh"
#include "testing/differ.hh"
#include "testing/generator.hh"
#include "testing/shrink.hh"

namespace {

using namespace pep;
namespace fz = pep::testing;

std::size_t
countOpcode(const bytecode::Program &program, bytecode::Opcode op)
{
    std::size_t n = 0;
    for (const bytecode::Method &method : program.methods)
        for (const bytecode::Instr &instr : method.code)
            n += instr.op == op ? 1 : 0;
    return n;
}

std::size_t
totalInstructions(const bytecode::Program &program)
{
    std::size_t n = 0;
    for (const bytecode::Method &method : program.methods)
        n += method.code.size();
    return n;
}

TEST(FuzzGenerator, ProgramsAreVerifierCleanAndCoverHardShapes)
{
    std::size_t switches = 0;
    std::size_t invokes = 0;
    std::size_t loops = 0;
    std::size_t shared_headers = 0;
    std::size_t parallel_edges = 0;

    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        fz::FuzzSpec spec;
        spec.seed = seed;
        bytecode::Program program = fz::generateProgram(spec);
        EXPECT_TRUE(bytecode::verifyProgram(program).ok)
            << "seed " << seed;

        switches += countOpcode(program, bytecode::Opcode::Tableswitch);
        invokes += countOpcode(program, bytecode::Opcode::Invoke);

        for (const bytecode::Method &method : program.methods) {
            const bytecode::MethodCfg cfg = bytecode::buildCfg(method);
            loops += cfg.backEdges.size();

            // Shared loop headers: several back edges into one block.
            std::set<cfg::BlockId> headers;
            for (const cfg::EdgeRef &edge : cfg.backEdges) {
                const cfg::BlockId dst = cfg.graph.edgeDst(edge);
                if (!headers.insert(dst).second)
                    ++shared_headers;
            }

            // Parallel edges (switch cases sharing a target block).
            for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
                const auto &succs = cfg.graph.succs(b);
                const std::set<cfg::BlockId> distinct(succs.begin(),
                                                      succs.end());
                parallel_edges += succs.size() - distinct.size();
            }
        }
    }

    EXPECT_GT(switches, 0u);
    EXPECT_GT(invokes, 0u);
    EXPECT_GT(loops, 40u); // well beyond the one driver loop per seed
    EXPECT_GT(shared_headers, 0u);
    EXPECT_GT(parallel_edges, 0u);
}

TEST(FuzzGenerator, DeterministicPerSeed)
{
    fz::FuzzSpec spec;
    spec.seed = 123;
    const bytecode::Program a = fz::generateProgram(spec);
    const bytecode::Program b = fz::generateProgram(spec);
    ASSERT_EQ(a.methods.size(), b.methods.size());
    for (std::size_t m = 0; m < a.methods.size(); ++m) {
        ASSERT_EQ(a.methods[m].code.size(), b.methods[m].code.size());
        for (std::size_t pc = 0; pc < a.methods[m].code.size(); ++pc) {
            EXPECT_EQ(a.methods[m].code[pc].op,
                      b.methods[m].code[pc].op);
            EXPECT_EQ(a.methods[m].code[pc].a, b.methods[m].code[pc].a);
        }
    }
}

TEST(FuzzGenerator, KIterEnvOverride)
{
    ::unsetenv("PEP_KITER");
    EXPECT_EQ(fz::kIterationsFromEnv(1), 1u);
    ::setenv("PEP_KITER", "4", 1);
    EXPECT_EQ(fz::kIterationsFromEnv(1), 4u);
    ::setenv("PEP_KITER", "0", 1);
    EXPECT_EQ(fz::kIterationsFromEnv(1), 1u);
    ::setenv("PEP_KITER", "nonsense", 1);
    EXPECT_EQ(fz::kIterationsFromEnv(1), 1u);
    ::unsetenv("PEP_KITER");
}

TEST(FuzzGenerator, ZeroLoopBiasIsByteIdenticalToLegacyStream)
{
    // The knob must not perturb the RNG stream when off: corpus seeds
    // recorded before the knob existed must replay unchanged.
    fz::FuzzSpec legacy;
    legacy.seed = 77;
    fz::FuzzSpec biased = legacy;
    biased.loopBias = 0.0;
    const bytecode::Program a = fz::generateProgram(legacy);
    const bytecode::Program b = fz::generateProgram(biased);
    ASSERT_EQ(a.methods.size(), b.methods.size());
    for (std::size_t m = 0; m < a.methods.size(); ++m) {
        ASSERT_EQ(a.methods[m].code.size(), b.methods[m].code.size());
        for (std::size_t pc = 0; pc < a.methods[m].code.size(); ++pc) {
            EXPECT_EQ(a.methods[m].code[pc].op,
                      b.methods[m].code[pc].op);
            EXPECT_EQ(a.methods[m].code[pc].a, b.methods[m].code[pc].a);
        }
    }
}

TEST(FuzzGenerator, LoopBiasProducesLoopHeavierCleanPrograms)
{
    std::size_t plain_loops = 0;
    std::size_t biased_loops = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        fz::FuzzSpec spec;
        spec.seed = seed;
        const bytecode::Program plain = fz::generateProgram(spec);
        spec.loopBias = 0.8;
        bytecode::Program biased = fz::generateProgram(spec);
        EXPECT_TRUE(bytecode::verifyProgram(biased).ok)
            << "seed " << seed;
        for (const bytecode::Method &method : plain.methods)
            plain_loops += bytecode::buildCfg(method).backEdges.size();
        for (const bytecode::Method &method : biased.methods)
            biased_loops += bytecode::buildCfg(method).backEdges.size();
    }
    EXPECT_GT(biased_loops, plain_loops);
}

TEST(Differ, CleanAcrossStandardConfigMatrix)
{
    std::size_t instrumented = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fz::FuzzSpec spec;
        spec.seed = seed;
        const bytecode::Program program =
            fz::generateProgram(spec);
        for (const fz::DiffOptions &config :
             fz::standardConfigs()) {
            const fz::DiffReport report =
                fz::runDiff(program, config);
            EXPECT_TRUE(report.ok())
                << "seed " << seed << " config " << config.name << ": "
                << (report.violations.empty()
                        ? ""
                        : report.violations.front());
            instrumented += report.instrumentedVersions;
            EXPECT_EQ(report.blppPaths, report.oracleSegments);
        }
    }
    // The sweep must actually exercise instrumented code.
    EXPECT_GT(instrumented, 0u);
}

/** Find a seed the configured injection bites on. */
std::uint64_t
findCaughtSeed(const fz::DiffOptions &opts)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        fz::FuzzSpec spec;
        spec.seed = seed;
        const bytecode::Program program =
            fz::generateProgram(spec);
        if (!fz::runDiff(program, opts).ok())
            return seed;
    }
    return 0;
}

TEST(Differ, CorruptIncrementInjectionIsCaught)
{
    const fz::DiffOptions *base =
        fz::findConfig("headersplit-direct");
    ASSERT_NE(base, nullptr);
    fz::DiffOptions opts = *base;
    opts.inject = fz::InjectKind::CorruptFlatIncrement;
    EXPECT_NE(findCaughtSeed(opts), 0u)
        << "no seed in 1..20 caught the corrupt-increment injection";
}

TEST(Differ, EngineDivergenceInjectionDivergesTheEngines)
{
    const fz::DiffOptions *base =
        fz::findConfig("headersplit-direct");
    ASSERT_NE(base, nullptr);
    fz::DiffOptions opts = *base;
    opts.inject = fz::InjectKind::EngineDivergence;

    const std::uint64_t seed = findCaughtSeed(opts);
    ASSERT_NE(seed, 0u)
        << "no seed in 1..20 caught the engine-divergence injection";

    // The violation must come from the engine cross-check — every
    // single-machine invariant still holds (only the threaded
    // cross-check machine runs on another Irnd stream).
    fz::FuzzSpec spec;
    spec.seed = seed;
    const bytecode::Program program = fz::generateProgram(spec);
    const fz::DiffReport caught = fz::runDiff(program, opts);
    ASSERT_FALSE(caught.ok());
    EXPECT_NE(caught.violations.front().find("engines:"),
              std::string::npos)
        << caught.violations.front();

    const fz::DiffReport clean = fz::runDiff(program, *base);
    EXPECT_TRUE(clean.ok()) << clean.violations.front();
}

TEST(Differ, StandardConfigMatrixCoversFusion)
{
    // The fusion legs (docs/ENGINE.md): superinstruction pairs alone,
    // and pairs + straightened traces under a k-iteration window with
    // the layout pass installed so recompiled layouts re-specialize.
    const fz::DiffOptions *pairs = fz::findConfig("fuse-pairs");
    ASSERT_NE(pairs, nullptr);
    EXPECT_TRUE(pairs->fuse.pairs);
    EXPECT_FALSE(pairs->fuse.traces);

    const fz::DiffOptions *traces =
        fz::findConfig("fuse-traces-kiter2");
    ASSERT_NE(traces, nullptr);
    EXPECT_TRUE(traces->fuse.pairs);
    EXPECT_TRUE(traces->fuse.traces);
    EXPECT_EQ(traces->kIterations, 2u);
    EXPECT_TRUE(traces->optLayout);
}

TEST(Differ, StandardConfigMatrixCoversKIterations)
{
    std::set<std::uint32_t> ks;
    for (const fz::DiffOptions &config : fz::standardConfigs())
        ks.insert(config.kIterations);
    EXPECT_TRUE(ks.count(1)) << "matrix lost the classic k=1 configs";
    EXPECT_TRUE(ks.count(2)) << "matrix lost the k=2 config";
    EXPECT_TRUE(ks.count(4)) << "matrix lost the k=4 configs";
}

TEST(Differ, TruncatedWindowInjectionIsCaughtAndCleanWithout)
{
    const fz::DiffOptions *base = fz::findConfig("kiter2-smart-osr");
    ASSERT_NE(base, nullptr);
    ASSERT_GT(base->kIterations, 1u)
        << "injection needs partial windows to drop";
    fz::DiffOptions opts = *base;
    opts.inject = fz::InjectKind::TruncatedWindow;

    const std::uint64_t seed = findCaughtSeed(opts);
    ASSERT_NE(seed, 0u)
        << "no seed in 1..20 caught the truncated-window injection";

    fz::FuzzSpec spec;
    spec.seed = seed;
    const bytecode::Program program = fz::generateProgram(spec);
    const fz::DiffReport clean = fz::runDiff(program, *base);
    EXPECT_TRUE(clean.ok()) << clean.violations.front();

    // At k=1 every window is a single segment: there is nothing to
    // truncate, so the same injection must be invisible.
    fz::DiffOptions degenerate = opts;
    degenerate.kIterations = 1;
    const fz::DiffReport k1 = fz::runDiff(program, degenerate);
    EXPECT_TRUE(k1.ok()) << k1.violations.front();
}

TEST(Differ, StaleOsrPlanInjectionIsCaughtAndCleanWithout)
{
    // A frame left on its old version's plan at OSR: the rebind the
    // threaded engine's inline register performs (docs/ENGINE.md).
    const fz::DiffOptions *base = fz::findConfig("smart-spanning-osr");
    ASSERT_NE(base, nullptr);
    ASSERT_TRUE(base->enableOsr) << "injection needs frames to replace";
    fz::DiffOptions opts = *base;
    opts.inject = fz::InjectKind::StaleOsrPlan;

    const std::uint64_t seed = findCaughtSeed(opts);
    ASSERT_NE(seed, 0u)
        << "no seed in 1..20 caught the stale-osr-plan injection";

    fz::FuzzSpec spec;
    spec.seed = seed;
    const bytecode::Program program = fz::generateProgram(spec);
    const fz::DiffReport clean = fz::runDiff(program, *base);
    EXPECT_TRUE(clean.ok()) << clean.violations.front();

    // Without OSR no frame is ever replaced: the same injection must be
    // invisible.
    fz::DiffOptions no_osr = opts;
    no_osr.enableOsr = false;
    const fz::DiffReport still = fz::runDiff(program, no_osr);
    EXPECT_TRUE(still.ok()) << still.violations.front();
}

TEST(Shrinker, ReducesInjectedFailureWhileItStillFails)
{
    const fz::DiffOptions *base =
        fz::findConfig("smart-spanning-osr");
    ASSERT_NE(base, nullptr);
    fz::DiffOptions opts = *base;
    opts.inject = fz::InjectKind::CorruptFlatIncrement;

    const std::uint64_t seed = findCaughtSeed(opts);
    ASSERT_NE(seed, 0u);
    fz::FuzzSpec spec;
    spec.seed = seed;
    const bytecode::Program failing = fz::generateProgram(spec);

    const fz::FailPredicate still_fails =
        [&](const bytecode::Program &candidate) {
            try {
                return !fz::runDiff(candidate, opts).ok();
            } catch (const support::PanicError &) {
                return true;
            } catch (const support::FatalError &) {
                return false;
            }
        };
    ASSERT_TRUE(still_fails(failing));

    const fz::ShrinkResult shrunk =
        fz::shrinkProgram(failing, still_fails);
    EXPECT_TRUE(shrunk.changed);
    EXPECT_GT(shrunk.attempts, 0u);
    EXPECT_LT(totalInstructions(shrunk.program),
              totalInstructions(failing));
    EXPECT_LE(shrunk.program.methods.size(), failing.methods.size());
    EXPECT_TRUE(still_fails(shrunk.program));

    bytecode::Program verified = shrunk.program;
    EXPECT_TRUE(bytecode::verifyProgram(verified).ok);
}

TEST(Differ, StandardConfigMatrixCoversCloning)
{
    // The always-on cloning configurations: the full pipeline under
    // the Smart scheme, and the same with k-iteration paths so cloned
    // synthesized CFGs meet cross-iteration windows.
    const fz::DiffOptions *smart = fz::findConfig("clone-smart");
    ASSERT_NE(smart, nullptr);
    EXPECT_TRUE(smart->optClone);
    EXPECT_TRUE(smart->optLayout);

    const fz::DiffOptions *kiter = fz::findConfig("clone-kiter2");
    ASSERT_NE(kiter, nullptr);
    EXPECT_TRUE(kiter->optClone);
    EXPECT_EQ(kiter->kIterations, 2u);

    // Seed 1 tiers a hot method to Opt2 with PEP profile data in time
    // for the cloning pass: the run must install a clone — otherwise
    // check 9 proves nothing — and stay violation-free.
    fz::FuzzSpec spec;
    spec.seed = 1;
    const bytecode::Program program = fz::generateProgram(spec);
    const fz::DiffReport clean = fz::runDiff(program, *smart);
    EXPECT_TRUE(clean.ok()) << clean.violations.front();
    bool cloned = false;
    for (const std::string &note : clean.notes)
        cloned = cloned ||
                 note.find("cloned versions") != std::string::npos;
    EXPECT_TRUE(cloned)
        << "seed 1 no longer installs a clone under clone-smart";
}

TEST(Differ, CorpusHeaderRoundTrip)
{
    fz::FuzzSpec spec;
    spec.seed = 5;
    const bytecode::Program program = fz::generateProgram(spec);
    const std::string text = fz::formatCorpusFile(
        program, "backedge", 5,
        fz::InjectKind::CorruptFlatIncrement, "why it failed");
    const fz::CorpusHeader header =
        fz::parseCorpusHeader(text);
    EXPECT_EQ(header.config, "backedge");
    EXPECT_EQ(header.inject, "corrupt-increment");
    EXPECT_EQ(header.seed, 5u);
}

} // namespace
