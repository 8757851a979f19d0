/**
 * @file
 * The concurrent runtime's acceptance checks, via the differential
 * harness: every standard multi-threaded scheduler configuration must
 * run clean — byte-identical repeat runs, interleaved merged truth
 * equal to the sum of per-thread exact oracles, and sharded aggregation
 * matching the mutex-global baseline count for count.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "testing/differ.hh"

namespace pep {
namespace {

std::string
joinViolations(const testing::DiffReport &report)
{
    std::ostringstream os;
    for (const std::string &violation : report.violations)
        os << violation << '\n';
    return os.str();
}

TEST(RuntimeThreadedDifferTest, StandardConfigsRunClean)
{
    for (const testing::ThreadedDiffOptions &config :
         testing::standardThreadedConfigs()) {
        const testing::DiffReport report =
            testing::runThreadedDiff(config);
        EXPECT_TRUE(report.ok())
            << config.name << ":\n" << joinViolations(report);
        EXPECT_GT(report.oracleSegments, 0u) << config.name;
        EXPECT_GT(report.pepSamplesRecorded, 0u) << config.name;
    }
}

TEST(RuntimeThreadedDifferTest, ConfigLookup)
{
    ASSERT_NE(testing::findThreadedConfig("coop-k2"), nullptr);
    EXPECT_EQ(testing::findThreadedConfig("coop-k2")->threads, 2u);
    EXPECT_EQ(testing::findThreadedConfig("no-such-config"), nullptr);

    const testing::ThreadedDiffOptions *ring =
        testing::findThreadedConfig("ring-small-epoch");
    ASSERT_NE(ring, nullptr);
    EXPECT_EQ(ring->tightRingCapacity, 16u)
        << "the standard matrix must keep a drop-heavy ring config";
}

TEST(RuntimeThreadedDifferTest, RingLostSampleInjectionRoundTrips)
{
    EXPECT_EQ(testing::injectKindName(
                  testing::InjectKind::RingLostSample),
              "ring-lost-sample");
    testing::InjectKind parsed = testing::InjectKind::None;
    ASSERT_TRUE(testing::parseInjectKind("ring-lost-sample", parsed));
    EXPECT_EQ(parsed, testing::InjectKind::RingLostSample);
}

TEST(RuntimeThreadedDifferTest, CatchesRingLostSampleInjection)
{
    // Harness self-test: a transport that loses one sample without
    // bumping a drop counter must be caught twice over — the
    // conservation law (check 5) goes off balance by one, and the
    // "drop-free" ring totals no longer match the mutex baseline
    // (check 6).
    testing::ThreadedDiffOptions options;
    options.name = "ring-lost-sample-self-test";
    options.threads = 2;
    options.seed = 9;
    options.requests = 48;
    options.workers = 2;
    options.epochRequests = 8;
    options.inject = testing::InjectKind::RingLostSample;
    const testing::DiffReport report =
        testing::runThreadedDiff(options);

    EXPECT_FALSE(report.ok())
        << "a silently lost sample went unnoticed";
    bool conservation = false;
    bool identity = false;
    for (const std::string &violation : report.violations) {
        if (violation.find("conservation") != std::string::npos)
            conservation = true;
        if (violation.find("drop-free ring vs mutex") !=
            std::string::npos)
            identity = true;
    }
    EXPECT_TRUE(conservation) << joinViolations(report);
    EXPECT_TRUE(identity) << joinViolations(report);

    // The same configuration without the injection is clean — the
    // checks fire on the bug, not on the configuration.
    options.inject = testing::InjectKind::None;
    const testing::DiffReport clean =
        testing::runThreadedDiff(options);
    EXPECT_TRUE(clean.ok()) << joinViolations(clean);
}

TEST(RuntimeThreadedDifferTest, DetectsShortRuns)
{
    // A one-thread config with zero requests still reports cleanly
    // (nothing to run, nothing to diverge) — but records no oracle
    // segments, which StandardConfigsRunClean above guards against for
    // the real configs.
    testing::ThreadedDiffOptions options;
    options.name = "empty";
    options.threads = 1;
    options.requests = 0;
    const testing::DiffReport report =
        testing::runThreadedDiff(options);
    EXPECT_TRUE(report.ok()) << joinViolations(report);
    EXPECT_EQ(report.oracleSegments, 0u);
}

} // namespace
} // namespace pep
