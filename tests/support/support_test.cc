/**
 * @file
 * Unit tests for the support utilities: RNG determinism and
 * distribution sanity, statistics helpers, string utilities, the table
 * printer, and the panic/fatal error paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/panic.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace pep::support {
namespace {

// ---- rng -----------------------------------------------------------------

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng rng(0);
    std::set<std::uint64_t> values;
    for (int i = 0; i < 16; ++i)
        values.insert(rng.next());
    EXPECT_GT(values.size(), 10u); // not stuck at a fixed point
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(10), 10u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(11);
    std::vector<int> buckets(8, 0);
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.nextBounded(8)];
    for (int count : buckets) {
        EXPECT_NEAR(count, n / 8, n / 80); // within 10%
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(5);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
    EXPECT_FALSE(rng.nextBool(-1.0));
    EXPECT_TRUE(rng.nextBool(2.0));
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, TripCountRespectsMinimumAndMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t trips = rng.nextTripCount(8.0, 2);
        EXPECT_GE(trips, 2u);
        sum += static_cast<double>(trips);
    }
    EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(21);
    Rng b = a.fork();
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, ForkChildContinuesParentSequence)
{
    // The non-overlap scheme (see rng.hh): the child takes over the
    // parent's current position, and the parent jumps 2^128 ahead. So
    // the child must reproduce exactly what the un-forked parent would
    // have produced next.
    Rng forked(42);
    Rng reference(42);
    Rng child = forked.fork();
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(child.next(), reference.next());
}

TEST(Rng, JumpMatchesForkedParent)
{
    // fork() == copy + jump(): the post-fork parent must be exactly a
    // jumped copy of the original.
    Rng forked(77);
    (void)forked.fork();
    Rng jumped(77);
    jumped.jump();
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(forked.next(), jumped.next());
}

TEST(Rng, SiblingForksNeverCollide)
{
    // Statistical sanity on top of the structural guarantee: draw a
    // window from many sibling forks and from the parent; with 64-bit
    // outputs no value should repeat across streams (a birthday
    // collision over 2^64 at this sample size is ~2^-31).
    Rng parent(1234);
    std::set<std::uint64_t> seen;
    std::size_t drawn = 0;
    for (int f = 0; f < 32; ++f) {
        Rng child = parent.fork();
        for (int i = 0; i < 512; ++i) {
            seen.insert(child.next());
            ++drawn;
        }
    }
    for (int i = 0; i < 512; ++i) {
        seen.insert(parent.next());
        ++drawn;
    }
    EXPECT_EQ(seen.size(), drawn);
}

TEST(Rng, ForkedStreamIsRoughlyUniform)
{
    // A fork must stay a healthy generator, not a degenerate corner of
    // the state space.
    Rng parent(99);
    Rng child = parent.fork();
    std::vector<int> buckets(8, 0);
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++buckets[child.nextBounded(8)];
    for (int count : buckets) {
        EXPECT_NEAR(count, n / 8, n / 80); // within 10%
    }
}

TEST(Rng, SplitmixAdvancesState)
{
    std::uint64_t state = 0;
    const std::uint64_t v1 = splitmix64(state);
    const std::uint64_t v2 = splitmix64(state);
    EXPECT_NE(v1, v2);
    EXPECT_NE(state, 0u);
}

// ---- stats ----------------------------------------------------------------

TEST(Stats, MeanAndEmpty)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Stats, GeomeanSkipsNonPositiveValues)
{
    // Zero and negative values have no logarithm: the geomean is
    // taken over the positive subset, and is 0.0 when that subset is
    // empty (documented in stats.hh).  The earlier implementation fed
    // log(0) = -inf into the sum and returned 0 or NaN for the whole
    // vector, wrecking overhead averages when one benchmark measured
    // a zero-cycle delta.
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, -3.0}), 0.0);
    EXPECT_NEAR(geomean({2.0, 0.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({-1.0, 9.0}), 9.0, 1e-12);
    EXPECT_FALSE(std::isnan(geomean({-1.0, -2.0})));
}

TEST(Stats, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(minOf({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(maxOf({3.0, 1.0, 2.0}), 3.0);
}

TEST(Stats, Formatting)
{
    EXPECT_EQ(formatOverhead(1.012), "+1.2%");
    EXPECT_EQ(formatOverhead(0.99), "-1.0%");
    EXPECT_EQ(formatPercent(0.943), "94.3%");
    EXPECT_EQ(formatPercent(0.5, 0), "50%");
    EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
}

// ---- strings ----------------------------------------------------------------

TEST(Strings, SplitWhitespace)
{
    const auto tokens = splitWhitespace("  a\tbc  d \n");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0], "a");
    EXPECT_EQ(tokens[1], "bc");
    EXPECT_EQ(tokens[2], "d");
    EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(Strings, SplitCharKeepsEmptyFields)
{
    const auto fields = splitChar("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n "), "");
    EXPECT_EQ(trim("ab"), "ab");
}

TEST(Strings, ParseInt)
{
    std::int64_t v = 0;
    EXPECT_TRUE(parseInt("-42", v));
    EXPECT_EQ(v, -42);
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("12x", v));
    EXPECT_FALSE(parseInt("x", v));
}

// ---- table ------------------------------------------------------------------

TEST(Table, AlignsColumns)
{
    Table table;
    table.header({"name", "value"});
    table.row({"a", "1"});
    table.row({"long-name", "22"});
    const std::string out = table.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Right-aligned numeric column: "22" ends at same offset as header.
    const auto lines = splitChar(out, '\n');
    ASSERT_GE(lines.size(), 4u);
    EXPECT_EQ(lines[0].size(), lines[3].size());
}

TEST(Table, SeparatorRendersFullWidthRule)
{
    Table table;
    table.header({"a", "b"});
    table.row({"1", "2"});
    table.separator();
    table.row({"3", "4"});
    const std::string out = table.str();
    // Header rule plus the explicit separator.
    std::size_t rules = 0;
    for (const std::string &line : splitChar(out, '\n')) {
        if (!line.empty() &&
            line.find_first_not_of('-') == std::string::npos) {
            ++rules;
        }
    }
    EXPECT_EQ(rules, 2u);
}

TEST(Table, RowCellCountMismatchPanics)
{
    Table table;
    table.header({"a", "b"});
    EXPECT_THROW(table.row({"only-one"}), PanicError);
}

// ---- panic/fatal ---------------------------------------------------------------

TEST(Panic, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input"), FatalError);
    try {
        fatal("bad input");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad input"),
                  std::string::npos);
    }
}

TEST(Panic, AssertMacroCarriesLocation)
{
    try {
        PEP_ASSERT(1 == 2);
        FAIL() << "should have thrown";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("support_test.cc"), std::string::npos);
    }
}

TEST(Panic, AssertMsgIncludesStream)
{
    try {
        const int x = 7;
        PEP_ASSERT_MSG(x == 0, "x was " << x);
        FAIL() << "should have thrown";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("x was 7"),
                  std::string::npos);
    }
}

} // namespace
} // namespace pep::support
