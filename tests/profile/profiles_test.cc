/**
 * @file
 * Edge- and path-profile container tests: branch counters, bias,
 * flipping, merging, the flat path table, lazy expansion, and
 * path->edge accumulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "profile/edge_profile.hh"
#include "profile/path_profile.hh"
#include "support/panic.hh"

namespace pep::profile {
namespace {

using bytecode::MethodCfg;

MethodCfg
figure1Cfg()
{
    const bytecode::Program p = test::figure1Program();
    return bytecode::buildCfg(p.methods[0]);
}

cfg::BlockId
firstCondBlock(const MethodCfg &cfg)
{
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] == bytecode::TerminatorKind::Cond)
            return b;
    }
    return cfg::kInvalidBlock;
}

TEST(EdgeProfile, StartsEmpty)
{
    const MethodCfg cfg = figure1Cfg();
    const MethodEdgeProfile profile(cfg);
    EXPECT_TRUE(profile.empty());
    EXPECT_EQ(profile.totalCount(), 0u);
}

TEST(EdgeProfile, CountsAndBias)
{
    const MethodCfg cfg = figure1Cfg();
    MethodEdgeProfile profile(cfg);
    const cfg::BlockId b = firstCondBlock(cfg);
    ASSERT_NE(b, cfg::kInvalidBlock);
    profile.addEdge(cfg::EdgeRef{b, 0}, 3); // taken
    profile.addEdge(cfg::EdgeRef{b, 1});    // not taken
    const BranchCounts counts = profile.branch(b);
    EXPECT_EQ(counts.taken, 3u);
    EXPECT_EQ(counts.notTaken, 1u);
    EXPECT_DOUBLE_EQ(counts.takenBias(), 0.75);
    EXPECT_EQ(profile.totalCount(), 4u);
}

TEST(EdgeProfile, BranchQueryOnNonBranchBlockPanics)
{
    const MethodCfg cfg = figure1Cfg();
    const MethodEdgeProfile profile(cfg);
    // The synthetic exit block has no successors at all.
    EXPECT_THROW(profile.branch(cfg.graph.exit()),
                 support::PanicError);
}

TEST(EdgeProfile, UnobservedBranchBiasIsHalf)
{
    BranchCounts counts;
    EXPECT_DOUBLE_EQ(counts.takenBias(), 0.5);
}

TEST(EdgeProfile, FlippedSwapsCondBranchesOnly)
{
    const bytecode::Program p = test::callSwitchProgram();
    const MethodCfg cfg = bytecode::buildCfg(p.methods[p.mainMethod]);
    MethodEdgeProfile profile(cfg);
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        for (std::uint32_t i = 0; i < cfg.graph.succs(b).size(); ++i)
            profile.addEdge(cfg::EdgeRef{b, i}, 10 * b + i + 1);
    }
    const MethodEdgeProfile flipped = profile.flipped(cfg);
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        const auto &orig = profile.counts()[b];
        const auto &flip = flipped.counts()[b];
        if (cfg.terminator[b] == bytecode::TerminatorKind::Cond) {
            EXPECT_EQ(flip[0], orig[1]);
            EXPECT_EQ(flip[1], orig[0]);
        } else {
            EXPECT_EQ(flip, orig);
        }
    }
}

TEST(EdgeProfile, MergeAndClear)
{
    const MethodCfg cfg = figure1Cfg();
    MethodEdgeProfile a(cfg);
    MethodEdgeProfile b(cfg);
    const cfg::BlockId block = firstCondBlock(cfg);
    a.addEdge(cfg::EdgeRef{block, 0}, 2);
    b.addEdge(cfg::EdgeRef{block, 0}, 5);
    a.merge(b);
    EXPECT_EQ(a.edgeCount(cfg::EdgeRef{block, 0}), 7u);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(EdgeProfileSet, SizedPerMethod)
{
    const bytecode::Program p = test::callSwitchProgram();
    std::vector<MethodCfg> cfgs;
    for (const auto &m : p.methods)
        cfgs.push_back(bytecode::buildCfg(m));
    EdgeProfileSet set(cfgs);
    ASSERT_EQ(set.perMethod.size(), p.methods.size());
    for (std::size_t m = 0; m < cfgs.size(); ++m) {
        EXPECT_EQ(set.perMethod[m].counts().size(),
                  cfgs[m].graph.numBlocks());
    }
}

TEST(EdgeProfileSet, MergeAddsPerMethodCounts)
{
    const bytecode::Program p = test::callSwitchProgram();
    std::vector<MethodCfg> cfgs;
    for (const auto &m : p.methods)
        cfgs.push_back(bytecode::buildCfg(m));
    EdgeProfileSet a(cfgs);
    EdgeProfileSet b(cfgs);

    // Any block with two outgoing edges will do (the switch block).
    std::size_t method = cfgs.size();
    cfg::BlockId block = cfg::kInvalidBlock;
    for (std::size_t m = 0; m < cfgs.size() && block == cfg::kInvalidBlock; ++m) {
        for (cfg::BlockId c = 0; c < cfgs[m].graph.numBlocks(); ++c) {
            if (cfgs[m].graph.succs(c).size() >= 2) {
                method = m;
                block = c;
                break;
            }
        }
    }
    ASSERT_NE(block, cfg::kInvalidBlock);
    a.perMethod[method].addEdge(cfg::EdgeRef{block, 0}, 2);
    b.perMethod[method].addEdge(cfg::EdgeRef{block, 0}, 3);
    b.perMethod[method].addEdge(cfg::EdgeRef{block, 1}, 4);

    a.merge(b);
    EXPECT_EQ(a.perMethod[method].edgeCount(cfg::EdgeRef{block, 0}), 5u);
    EXPECT_EQ(a.perMethod[method].edgeCount(cfg::EdgeRef{block, 1}), 4u);
    EXPECT_EQ(a.totalCount(), 9u);
    // merge() reads, never writes, its argument.
    EXPECT_EQ(b.totalCount(), 7u);
}

TEST(EdgeProfileSet, MergeRejectsDifferentPrograms)
{
    const bytecode::Program p = test::callSwitchProgram();
    std::vector<MethodCfg> cfgs;
    for (const auto &m : p.methods)
        cfgs.push_back(bytecode::buildCfg(m));
    EdgeProfileSet whole(cfgs);

    // Different method count.
    std::vector<MethodCfg> fewer(cfgs.begin(), cfgs.end() - 1);
    EdgeProfileSet truncated(fewer);
    EXPECT_THROW(whole.merge(truncated), support::PanicError);

    // Same method count, different CFG shape.
    std::vector<MethodCfg> reshaped = cfgs;
    std::rotate(reshaped.begin(), reshaped.begin() + 1,
                reshaped.end());
    EdgeProfileSet rotated(reshaped);
    EXPECT_THROW(whole.merge(rotated), support::PanicError);
}

class PathProfileFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg = figure1Cfg();
        pdag = buildPDag(cfg, DagMode::HeaderSplit);
        numbering = numberPaths(pdag, NumberingScheme::BallLarus);
        reconstructor = std::make_unique<PathReconstructor>(
            cfg, pdag, numbering);
    }

    MethodCfg cfg;
    PDag pdag;
    Numbering numbering;
    std::unique_ptr<PathReconstructor> reconstructor;
};

TEST_F(PathProfileFixture, AddSampleAccumulates)
{
    MethodPathProfile profile;
    profile.addSample(2);
    profile.addSample(2, 4);
    profile.addSample(0);
    EXPECT_EQ(profile.numDistinctPaths(), 2u);
    EXPECT_EQ(profile.totalCount(), 6u);
    ASSERT_NE(profile.find(2), nullptr);
    EXPECT_EQ(profile.find(2)->count, 5u);
    EXPECT_EQ(profile.find(7), nullptr);
}

TEST_F(PathProfileFixture, EnsureExpandedFillsEveryRecord)
{
    MethodPathProfile profile;
    for (std::uint64_t n = 0; n < numbering.totalPaths; ++n)
        profile.addSample(n, n + 1);
    profile.ensureExpanded(*reconstructor);
    for (const auto &[number, record] : profile.paths()) {
        EXPECT_TRUE(record.expanded);
        EXPECT_FALSE(record.cfgEdges.empty());
    }
}

TEST_F(PathProfileFixture, AccumulateEdgeProfileWeightsByCount)
{
    MethodPathProfile profile;
    profile.addSample(1, 10);

    MethodEdgeProfile edges(cfg);
    accumulateEdgeProfile(edges, profile, *reconstructor);

    const PathRecord *record = profile.find(1);
    ASSERT_NE(record, nullptr);
    for (const cfg::EdgeRef &e : record->cfgEdges)
        EXPECT_EQ(edges.edgeCount(e), 10u);
    EXPECT_EQ(edges.totalCount(), 10u * record->cfgEdges.size());
}

/**
 * `n` ids whose hashes share their top 16 bits, `top`: every index of
 * up to 2^16 slots gives all of them one home slot.
 */
std::vector<std::uint64_t>
collidingIds(std::uint64_t top, std::uint64_t n)
{
    // The multiplier is odd, so it is invertible modulo 2^64; each
    // Newton step doubles the inverse's correct low bits (from 3).
    constexpr std::uint64_t k = MethodPathProfile::kHashMultiplier;
    std::uint64_t inverse = k;
    for (int step = 0; step < 5; ++step)
        inverse *= 2 - k * inverse;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t low = 0; low < n; ++low)
        ids.push_back(((top << 48) | low) * inverse);
    return ids;
}

/** Every record of `profile`, with paths() checked to visit each
 *  path once and to agree with find(). */
std::map<std::uint64_t, std::uint64_t>
countsOf(const MethodPathProfile &profile)
{
    std::map<std::uint64_t, std::uint64_t> counts;
    for (const auto &[number, record] : profile.paths()) {
        EXPECT_TRUE(counts.emplace(number, record.count).second)
            << "path " << number << " visited twice";
        EXPECT_EQ(profile.find(number), &record) << "path " << number;
    }
    return counts;
}

TEST(PathTable, CountsTenThousandIdsExactly)
{
    // Dense ids from 0, the top of the 62-bit id space, and 300 ids
    // that share one home slot — the index's last, so their probe
    // cluster wraps around to slot 0 — at every size the table grows
    // through.
    std::vector<std::uint64_t> ids;
    for (std::uint64_t n = 0; n < 10'000; ++n)
        ids.push_back(n);
    ids.push_back((std::uint64_t{1} << 62) - 1);
    const std::vector<std::uint64_t> colliding = collidingIds(0xffff, 400);
    ids.insert(ids.end(), colliding.begin(), colliding.begin() + 300);

    MethodPathProfile profile;
    std::map<std::uint64_t, std::uint64_t> want;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < ids.size(); i += pass + 1) {
            const std::uint64_t n = i % 7 + 1;
            EXPECT_EQ(profile.addSample(ids[i], n).count, want[ids[i]] += n);
        }
    }
    std::uint64_t total = 0;
    for (const auto &[number, count] : want)
        total += count;
    EXPECT_EQ(profile.numDistinctPaths(), want.size());
    EXPECT_EQ(profile.totalCount(), total);
    EXPECT_EQ(countsOf(profile), want);

    // Ids never recorded, among them more of the colliding cluster's.
    for (std::uint64_t n = 10'000; n < 10'100; ++n)
        EXPECT_EQ(profile.find(n), nullptr) << n;
    for (std::size_t i = 300; i < colliding.size(); ++i)
        EXPECT_EQ(profile.find(colliding[i]), nullptr) << colliding[i];

    // A copy finds every record in its own table, also once its source
    // is cleared: the index holds positions, not pointers into the
    // source. A move takes the table along.
    MethodPathProfile copy = profile;
    profile.clear();
    EXPECT_EQ(countsOf(copy), want);
    const MethodPathProfile moved = std::move(copy);
    EXPECT_EQ(countsOf(moved), want);

    // Cleared, the table is empty and takes new records again.
    EXPECT_EQ(profile.numDistinctPaths(), 0u);
    EXPECT_EQ(profile.totalCount(), 0u);
    EXPECT_TRUE(profile.paths().empty());
    EXPECT_EQ(profile.find(0), nullptr);
    EXPECT_EQ(profile.find(colliding[0]), nullptr);
    std::map<std::uint64_t, std::uint64_t> again;
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        profile.addSample(ids[i], 2);
        again[ids[i]] += 2;
    }
    EXPECT_EQ(profile.numDistinctPaths(), again.size());
    EXPECT_EQ(countsOf(profile), again);
}

TEST(PathTable, PositionsOutliveInsertions)
{
    // insert() hands out positions that stay valid while later
    // insertions move every record.
    MethodPathProfile profile;
    const std::uint32_t first = profile.insert(42);
    EXPECT_EQ(profile.insert(42), first);
    for (std::uint64_t n = 0; n < 1'000; ++n)
        profile.addSample(n + 100);
    profile.recordAt(first).count += 3;
    ASSERT_NE(profile.find(42), nullptr);
    EXPECT_EQ(profile.find(42)->count, 3u);
    EXPECT_EQ(profile.paths()[first].first, 42u);
}

} // namespace
} // namespace pep::profile
