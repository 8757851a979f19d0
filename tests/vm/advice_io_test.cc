/**
 * @file
 * Advice-file serialization tests: round trips, validation against
 * the program's CFG shapes, and malformed-input rejection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <filesystem>

#include "common/fixtures.hh"
#include "testing/generator.hh"
#include "vm/advice_io.hh"
#include "workload/suite.hh"

namespace pep::vm {
namespace {

struct AdviceFixture : ::testing::Test
{
    void
    SetUp() override
    {
        workload::WorkloadSpec spec = workload::standardSuite()[0];
        spec.outerIterations = 60;
        program = workload::generateWorkload(spec);
        SimParams params;
        params.tickCycles = 100'000;
        Machine recorder(program, params);
        recorder.runIteration();
        advice = recorder.recordAdvice();
        for (std::size_t m = 0; m < recorder.numMethods(); ++m) {
            cfgs.push_back(recorder.info(
                static_cast<bytecode::MethodId>(m)).cfg);
        }
    }

    bytecode::Program program;
    ReplayAdvice advice;
    std::vector<bytecode::MethodCfg> cfgs;
};

TEST_F(AdviceFixture, RoundTripsExactly)
{
    const std::string text = serializeAdvice(advice);
    const ParseAdviceResult parsed = parseAdvice(text, cfgs);
    ASSERT_TRUE(parsed.ok) << parsed.error;

    ASSERT_EQ(parsed.advice.finalLevel.size(),
              advice.finalLevel.size());
    EXPECT_EQ(parsed.advice.finalLevel, advice.finalLevel);
    EXPECT_EQ(parsed.advice.oneTimeEdges, advice.oneTimeEdges);
}

TEST_F(AdviceFixture, ParsedAdviceDrivesReplayIdentically)
{
    const ParseAdviceResult parsed =
        parseAdvice(serializeAdvice(advice), cfgs);
    ASSERT_TRUE(parsed.ok);

    SimParams params;
    params.tickCycles = 100'000;
    Machine a(program, params);
    a.enableReplay(&advice);
    Machine b(program, params);
    b.enableReplay(&parsed.advice);
    EXPECT_EQ(a.runIteration(), b.runIteration());
    EXPECT_EQ(a.runIteration(), b.runIteration());
}

TEST_F(AdviceFixture, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "pep_advice_test";
    ASSERT_TRUE(saveAdviceFile(path, advice));
    const ParseAdviceResult loaded = loadAdviceFile(path, cfgs);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.advice.finalLevel, advice.finalLevel);
    std::remove(path.c_str());
}

TEST_F(AdviceFixture, RejectsWrongProgram)
{
    // Advice for this program parsed against a different program's
    // CFGs must be rejected, not silently misapplied.
    const bytecode::Program other = test::callSwitchProgram();
    std::vector<bytecode::MethodCfg> other_cfgs;
    for (const auto &m : other.methods)
        other_cfgs.push_back(bytecode::buildCfg(m));
    const ParseAdviceResult parsed =
        parseAdvice(serializeAdvice(advice), other_cfgs);
    EXPECT_FALSE(parsed.ok);
}

TEST(AdviceParse, RejectsMalformedInputs)
{
    const bytecode::Program program = test::simpleLoopProgram();
    std::vector<bytecode::MethodCfg> cfgs{
        bytecode::buildCfg(program.methods[0])};

    const char *bad_inputs[] = {
        "",                                          // empty
        "not-advice 1\nend\n",                       // wrong magic
        "pep-advice 2\nend\n",                       // wrong version
        "pep-advice 1\nmethods 1\n",                 // missing end
        "pep-advice 1\nmethods 5\nend\n",            // count mismatch
        "pep-advice 1\nmethods 1\nlevel 9 0\nend\n", // bad method
        "pep-advice 1\nmethods 1\nlevel 0 7\nend\n", // bad level
        "pep-advice 1\nmethods 1\nedge 0 999 0 1\nend\n", // bad block
        "pep-advice 1\nmethods 1\nedge 0 0 99 1\nend\n",  // bad succ
        "pep-advice 1\nmethods 1\nedge 0 0 0 -4\nend\n",  // negative
        "pep-advice 1\nmethods 1\nfrob 1\nend\n",         // unknown
        "pep-advice 1\nmethods 1\nend\nlevel 0 0\n",      // after end
    };
    for (const char *input : bad_inputs) {
        const ParseAdviceResult parsed = parseAdvice(input, cfgs);
        EXPECT_FALSE(parsed.ok) << "accepted: " << input;
        EXPECT_FALSE(parsed.error.empty());
    }
}

/**
 * Property tests over generator-produced programs: the text format is
 * canonical, so serialize -> parse -> serialize must reproduce the
 * input byte for byte, for any advice an adaptive run can record.
 */
TEST(AdviceProperty, SerializeParseSerializeIsByteIdentical)
{
    for (const std::uint64_t seed :
         {3ull, 17ull, 99ull, 481ull, 12345ull}) {
        testing::FuzzSpec spec;
        spec.seed = seed;
        const bytecode::Program program =
            testing::generateProgram(spec);

        SimParams params;
        params.tickCycles = 20'000;
        Machine machine(program, params);
        machine.runIteration();
        machine.runIteration();
        const ReplayAdvice advice = machine.recordAdvice();

        std::vector<bytecode::MethodCfg> cfgs;
        for (std::size_t m = 0; m < machine.numMethods(); ++m) {
            cfgs.push_back(
                machine.info(static_cast<bytecode::MethodId>(m)).cfg);
        }

        const std::string first = serializeAdvice(advice);
        const ParseAdviceResult parsed = parseAdvice(first, cfgs);
        ASSERT_TRUE(parsed.ok) << "seed " << seed << ": "
                               << parsed.error;
        EXPECT_EQ(serializeAdvice(parsed.advice), first)
            << "seed " << seed;
    }
}

TEST(AdviceProperty, RejectsOutOfRangeLinesInValidAdvice)
{
    testing::FuzzSpec spec;
    spec.seed = 7;
    const bytecode::Program program = testing::generateProgram(spec);
    SimParams params;
    params.tickCycles = 20'000;
    Machine machine(program, params);
    machine.runIteration();

    std::vector<bytecode::MethodCfg> cfgs;
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        cfgs.push_back(
            machine.info(static_cast<bytecode::MethodId>(m)).cfg);
    }
    const std::string valid =
        serializeAdvice(machine.recordAdvice());
    ASSERT_TRUE(parseAdvice(valid, cfgs).ok);

    // Splice one out-of-range record into otherwise valid advice: a
    // method id past the program, then edge coordinates past the CFG.
    const char *bad_lines[] = {
        "level 9999 1",
        "edge 9999 0 0 5",
        "edge 0 99999 0 5",
        "edge 0 0 99 5",
    };
    const std::size_t end_pos = valid.rfind("end");
    ASSERT_NE(end_pos, std::string::npos);
    for (const char *bad : bad_lines) {
        std::string text = valid;
        text.insert(end_pos, std::string(bad) + "\n");
        const ParseAdviceResult parsed = parseAdvice(text, cfgs);
        EXPECT_FALSE(parsed.ok) << "accepted spliced line: " << bad;
        EXPECT_FALSE(parsed.error.empty());
    }
}

/**
 * Malformed-input property: every prefix of each example program's
 * recorded advice and thousands of seeded single-byte corruptions of
 * it come back from parseAdvice either parsed or rejected with a
 * diagnostic — never an exception, and (under the sanitizer builds)
 * never a memory error.
 */
TEST(AdviceProperty, MalformedRecordedAdviceIsDiagnosedNotThrown)
{
    const auto files = test::readPepasmFiles(
        std::filesystem::path(PEP_SOURCE_DIR) / "examples" / "programs");
    ASSERT_FALSE(files.empty());
    std::uint64_t seed = 1;
    for (const auto &[name, source] : files) {
        SimParams params;
        params.tickCycles = 20'000;
        Machine machine(bytecode::assembleOrDie(source), params);
        machine.runIteration();
        std::vector<bytecode::MethodCfg> cfgs;
        for (std::size_t m = 0; m < machine.numMethods(); ++m) {
            cfgs.push_back(
                machine.info(static_cast<bytecode::MethodId>(m)).cfg);
        }
        const std::string text = serializeAdvice(machine.recordAdvice());
        ASSERT_TRUE(parseAdvice(text, cfgs).ok) << name;

        std::size_t rejected = 0;
        test::forEachMalformedVariant(
            text, seed++, 2000,
            [&](const std::string &input, const std::string &how) {
                try {
                    const ParseAdviceResult parsed =
                        parseAdvice(input, cfgs);
                    if (!parsed.ok) {
                        ++rejected;
                        EXPECT_FALSE(parsed.error.empty())
                            << name << ", " << how;
                    }
                } catch (const std::exception &e) {
                    ADD_FAILURE() << name << ", " << how
                                  << ": threw " << e.what();
                }
            });
        EXPECT_GT(rejected, 0u) << name;
    }
}

TEST(AdviceParse, MissingFileReportsError)
{
    const bytecode::Program program = test::simpleLoopProgram();
    std::vector<bytecode::MethodCfg> cfgs{
        bytecode::buildCfg(program.methods[0])};
    const ParseAdviceResult loaded =
        loadAdviceFile("/nonexistent/pep-advice", cfgs);
    EXPECT_FALSE(loaded.ok);
}

} // namespace
} // namespace pep::vm
