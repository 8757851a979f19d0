/**
 * @file
 * Tests for the Pettis-Hansen chain-layout pass (opt/chain_layout.hh):
 * golden layouts on the canned fixture programs, the no-profile
 * degenerate case, determinism, and the property that the chosen
 * layout never scores worse than the unprofiled natural order under
 * the static fallthrough/icache cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "opt/chain_layout.hh"
#include "vm/cost_model.hh"
#include "vm/machine.hh"

namespace {

using namespace pep;

/** Weight table shaped like the CFG's successor lists, all zero. */
std::vector<std::vector<std::uint64_t>>
zeroWeights(const bytecode::MethodCfg &cfg)
{
    std::vector<std::vector<std::uint64_t>> weights(
        cfg.graph.numBlocks());
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
        weights[b].assign(cfg.graph.succs(b).size(), 0);
    return weights;
}

/** The loop-header block of a single-loop fixture method. */
cfg::BlockId
headerBlock(const bytecode::MethodCfg &cfg)
{
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
        if (cfg.isCodeBlock(b) && cfg.isLoopHeader[b])
            return b;
    return cfg::kInvalidBlock;
}

/** The first Cond block that is not the loop header (the diamond). */
cfg::BlockId
diamondBlock(const bytecode::MethodCfg &cfg)
{
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.isCodeBlock(b) && !cfg.isLoopHeader[b] &&
            cfg.terminator[b] == bytecode::TerminatorKind::Cond)
            return b;
    }
    return cfg::kInvalidBlock;
}

std::vector<cfg::BlockId>
naturalOrder(const bytecode::MethodCfg &cfg)
{
    std::vector<cfg::BlockId> natural;
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b)
        if (cfg.isCodeBlock(b))
            natural.push_back(b);
    return natural;
}

TEST(ChainLayout, ZeroWeightsKeepNaturalOrderAndUnknownLayout)
{
    const bytecode::Program program = test::figure1Program();
    const bytecode::MethodCfg cfg =
        bytecode::buildCfg(program.methods[program.mainMethod]);

    const opt::ChainLayout layout = opt::computeChainLayout(
        cfg, zeroWeights(cfg), vm::CostModel{});

    EXPECT_EQ(layout.order, naturalOrder(cfg));
    for (std::int16_t direction : layout.branchLayout)
        EXPECT_EQ(direction, -1);
    EXPECT_DOUBLE_EQ(layout.estimatedCost, layout.baselineCost);
}

TEST(ChainLayout, GoldenLayoutOnFigure1)
{
    // Figure 1's diamond with the taken arm hot: the derived layout
    // must predict the hot direction of every weighted branch and the
    // chain order must place the hot arm straight after the diamond.
    const bytecode::Program program = test::figure1Program();
    const bytecode::MethodCfg cfg =
        bytecode::buildCfg(program.methods[program.mainMethod]);
    const cfg::BlockId header = headerBlock(cfg);
    const cfg::BlockId diamond = diamondBlock(cfg);
    ASSERT_NE(header, cfg::kInvalidBlock);
    ASSERT_NE(diamond, cfg::kInvalidBlock);

    auto weights = zeroWeights(cfg);
    weights[header][0] = 2;   // taken: loop exit (cold)
    weights[header][1] = 100; // fall-through into the body (hot)
    weights[diamond][0] = 90; // taken arm hot
    weights[diamond][1] = 10;
    const cfg::BlockId hot_arm = cfg.graph.succs(diamond)[0];
    const cfg::BlockId cold_arm = cfg.graph.succs(diamond)[1];
    weights[hot_arm][0] = 90;
    weights[cold_arm][0] = 10;
    // The join's back edge into the header.
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.isCodeBlock(b) &&
            cfg.terminator[b] == bytecode::TerminatorKind::Goto &&
            cfg.graph.succs(b)[0] == header)
            weights[b][0] = 100;
    }

    const opt::ChainLayout layout = opt::computeChainLayout(
        cfg, weights, vm::CostModel{});

    EXPECT_EQ(layout.branchLayout[diamond], 1) << "taken arm is hot";
    EXPECT_EQ(layout.branchLayout[header], 0)
        << "fall-through into the body is hot";

    // The hot arm immediately follows the diamond in the chain order.
    const auto at = std::find(layout.order.begin(), layout.order.end(),
                              diamond);
    ASSERT_NE(at, layout.order.end());
    ASSERT_NE(at + 1, layout.order.end());
    EXPECT_EQ(*(at + 1), hot_arm);

    // Predicting the hot directions must beat the unprofiled baseline
    // strictly: the baseline mispredicts the diamond's 90-weight arm.
    EXPECT_LT(layout.estimatedCost, layout.baselineCost);
}

TEST(ChainLayout, DeterministicAcrossRepeatedRuns)
{
    const bytecode::Program program = test::callSwitchProgram();
    vm::Machine machine(program, vm::SimParams{});
    machine.runIteration();

    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const auto method = static_cast<bytecode::MethodId>(m);
        const bytecode::MethodCfg &cfg = machine.info(method).cfg;
        const auto &weights =
            machine.truthEdges().perMethod[m].counts();

        const opt::ChainLayout first = opt::computeChainLayout(
            cfg, weights, vm::CostModel{});
        const opt::ChainLayout second = opt::computeChainLayout(
            cfg, weights, vm::CostModel{});
        EXPECT_EQ(first.order, second.order);
        EXPECT_EQ(first.branchLayout, second.branchLayout);
        EXPECT_DOUBLE_EQ(first.estimatedCost, second.estimatedCost);
    }
}

TEST(ChainLayout, NeverScoresWorseThanBaselineOnRandomPrograms)
{
    // Property over random structured programs with real executed
    // weights: the pass's chosen (order, layout) never scores above
    // the unprofiled natural order, and the order stays a permutation
    // of the method's code blocks.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const bytecode::Program program =
            test::randomStructuredProgram(seed, 10);
        vm::Machine machine(program, vm::SimParams{});
        machine.runIteration();

        const bytecode::MethodCfg &cfg = machine.info(0).cfg;
        const auto &weights = machine.truthEdges().perMethod[0].counts();

        const opt::ChainLayout layout = opt::computeChainLayout(
            cfg, weights, vm::CostModel{});
        EXPECT_LE(layout.estimatedCost, layout.baselineCost + 1e-9);

        std::vector<cfg::BlockId> sorted = layout.order;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, naturalOrder(cfg))
            << "order must be a permutation of the code blocks";
    }
}

TEST(ChainLayout, EstimateChargesMissAndBreakTerms)
{
    // A two-way branch laid out against its hot direction pays
    // layoutMissPenalty per hot crossing; a successor that does not
    // follow its source in the order pays the icache term.
    const bytecode::Program program = test::figure1Program();
    const bytecode::MethodCfg cfg =
        bytecode::buildCfg(program.methods[program.mainMethod]);
    const cfg::BlockId diamond = diamondBlock(cfg);
    ASSERT_NE(diamond, cfg::kInvalidBlock);

    auto weights = zeroWeights(cfg);
    weights[diamond][0] = 50; // all weight on the taken arm

    const vm::CostModel cost;
    const std::vector<cfg::BlockId> order = naturalOrder(cfg);
    std::vector<std::int16_t> toward_hot(cfg.graph.numBlocks(), -1);
    std::vector<std::int16_t> against_hot(cfg.graph.numBlocks(), -1);
    toward_hot[diamond] = 1;
    against_hot[diamond] = 0;

    const double good = opt::estimateLayoutCost(cfg, weights, order,
                                                toward_hot, cost);
    const double bad = opt::estimateLayoutCost(cfg, weights, order,
                                               against_hot, cost);
    EXPECT_DOUBLE_EQ(bad - good,
                     50.0 * static_cast<double>(cost.layoutMissPenalty));
    // The taken arm does not follow the diamond in natural order, so
    // the predicted layout still pays the break term for its crossings.
    EXPECT_DOUBLE_EQ(good,
                     50.0 * static_cast<double>(cost.icacheBreakPenalty));
}

} // namespace
