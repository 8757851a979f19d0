#ifndef PEP_OPT_CHAIN_LAYOUT_HH
#define PEP_OPT_CHAIN_LAYOUT_HH

/**
 * @file
 * Pettis-Hansen style basic-block chain layout (docs/OPT.md). Bottom-up
 * chain merging over profile-weighted CFG edges: every hot block starts
 * as its own chain; edges are visited by descending weight and merge
 * the chain ending in their source with the chain starting at their
 * target. The resulting block order and the branch-direction layout
 * derived from it are scored by a static fallthrough/icache cost model
 * built on CostModel::layoutMissPenalty and icacheBreakPenalty.
 *
 * Its three limits follow Propeller's knobs (SNIPPETS.md snippet 1)
 * but are fixed constants, since no caller varies them: a hot-cutoff
 * percentile that splits hot from cold blocks by cumulative weight
 * coverage, a maximum chain length, and a minimum flow ratio below
 * which an edge cannot merge chains.
 *
 * The simulator charges cycles for *direction misses* only
 * (CostModel::layoutMissPenalty — see docs/ENGINE.md), so the
 * branchLayout this pass derives is what runtime cycles realize; the
 * block order is metadata (CompiledMethod::layoutOrder) plus the input
 * to the static scorer that picks between the chain order and the
 * natural order.
 */

#include <cstdint>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "cfg/graph.hh"
#include "vm/cost_model.hh"

namespace pep::opt {

/** Blocks covering this fraction of total block weight (hottest
 *  first) are laid out by chain merging; the rest are appended cold,
 *  in natural order. */
inline constexpr double kHotCutoffPercentile = 0.95;

/** Maximum blocks per merged chain (bounds the straight-line run a
 *  single merge decision can commit to). */
inline constexpr std::uint32_t kMaxChainLength = 64;

/** An edge may merge chains only if it carries at least this fraction
 *  of its source block's outgoing weight. */
inline constexpr double kMinFlowRatio = 0.05;

/** Result of the pass for one method CFG. */
struct ChainLayout
{
    /** All code blocks, in layout order (hot chains then cold tail). */
    std::vector<cfg::BlockId> order;

    /** Per block: branch-direction layout in CompiledMethod's
     *  convention (Cond: 1 taken / 0 fall-through / -1 unknown;
     *  Switch: predicted successor index or -1). */
    std::vector<std::int16_t> branchLayout;

    /** Static score of (order, branchLayout) — lower is better. */
    double estimatedCost = 0.0;

    /** Static score of the natural order with no profile information
     *  (every branch laid out for fall-through / default). */
    double baselineCost = 0.0;
};

/**
 * Score a candidate layout: expected direction-miss cycles
 * (layoutMissPenalty times the weight that goes against each block's
 * laid-out direction) plus the icache break term (icacheBreakPenalty
 * times the weight of edges whose target does not immediately follow
 * their source in `order`).
 */
double estimateLayoutCost(
    const bytecode::MethodCfg &method_cfg,
    const std::vector<std::vector<std::uint64_t>> &edge_weights,
    const std::vector<cfg::BlockId> &order,
    const std::vector<std::int16_t> &branch_layout,
    const vm::CostModel &cost);

/**
 * Compute the chain layout of one method CFG under the given edge
 * weights (a table parallel to the graph's successor lists — the
 * caller maps synthesized-body blocks through their origins before
 * calling). Fully deterministic: ties break on block ids and edge
 * indices. With an all-zero weight table the result is the natural
 * order with an all-unknown layout.
 */
ChainLayout computeChainLayout(
    const bytecode::MethodCfg &method_cfg,
    const std::vector<std::vector<std::uint64_t>> &edge_weights,
    const vm::CostModel &cost);

} // namespace pep::opt

#endif // PEP_OPT_CHAIN_LAYOUT_HH
