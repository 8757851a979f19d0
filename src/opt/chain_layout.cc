#include "opt/chain_layout.hh"

#include <algorithm>
#include <cstddef>

#include "support/panic.hh"

namespace pep::opt {

namespace {

std::uint64_t
edgeWeight(const std::vector<std::vector<std::uint64_t>> &weights,
           cfg::BlockId src, std::uint32_t index)
{
    if (src >= weights.size() || index >= weights[src].size())
        return 0;
    return weights[src][index];
}

/** Inflow of every block (weight arriving over its incoming edges). */
std::vector<std::uint64_t>
blockInflow(const cfg::Graph &graph,
            const std::vector<std::vector<std::uint64_t>> &weights)
{
    std::vector<std::uint64_t> inflow(graph.numBlocks(), 0);
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        const auto &succs = graph.succs(b);
        for (std::uint32_t i = 0; i < succs.size(); ++i)
            inflow[succs[i]] += edgeWeight(weights, b, i);
    }
    return inflow;
}

/**
 * Derive the branch-direction layout for `order`: the hotter direction
 * becomes primary; adjacency in `order` breaks exact ties; a branch
 * with no weight at all stays unknown (-1).
 */
std::vector<std::int16_t>
deriveBranchLayout(const bytecode::MethodCfg &method_cfg,
                   const std::vector<std::vector<std::uint64_t>> &weights,
                   const std::vector<cfg::BlockId> &order)
{
    const cfg::Graph &graph = method_cfg.graph;
    std::vector<cfg::BlockId> next(graph.numBlocks(), cfg::kInvalidBlock);
    for (std::size_t i = 0; i + 1 < order.size(); ++i)
        next[order[i]] = order[i + 1];

    std::vector<std::int16_t> layout(graph.numBlocks(), -1);
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        const auto &succs = graph.succs(b);
        switch (method_cfg.terminator[b]) {
        case bytecode::TerminatorKind::Cond: {
            PEP_ASSERT(succs.size() == 2);
            const std::uint64_t taken = edgeWeight(weights, b, 0);
            const std::uint64_t fall = edgeWeight(weights, b, 1);
            if (taken == 0 && fall == 0)
                break; // no information: stay unknown
            if (taken > fall)
                layout[b] = 1;
            else if (fall > taken)
                layout[b] = 0;
            else // exact tie: predict whichever target follows us
                layout[b] = next[b] == succs[0] ? 1 : 0;
            break;
        }
        case bytecode::TerminatorKind::Switch: {
            std::uint64_t best = 0;
            std::int32_t best_index = -1;
            for (std::uint32_t i = 0; i < succs.size(); ++i) {
                const std::uint64_t w = edgeWeight(weights, b, i);
                if (w > best ||
                    (w == best && best_index >= 0 && w > 0 &&
                     next[b] == succs[i] &&
                     next[b] != succs[static_cast<std::uint32_t>(
                         best_index)])) {
                    best = w;
                    best_index = static_cast<std::int32_t>(i);
                }
            }
            if (best > 0)
                layout[b] = static_cast<std::int16_t>(best_index);
            break;
        }
        default:
            break;
        }
    }
    return layout;
}

} // namespace

double
estimateLayoutCost(const bytecode::MethodCfg &method_cfg,
                   const std::vector<std::vector<std::uint64_t>> &weights,
                   const std::vector<cfg::BlockId> &order,
                   const std::vector<std::int16_t> &branch_layout,
                   const vm::CostModel &cost)
{
    const cfg::Graph &graph = method_cfg.graph;
    std::vector<cfg::BlockId> next(graph.numBlocks(), cfg::kInvalidBlock);
    for (std::size_t i = 0; i + 1 < order.size(); ++i)
        next[order[i]] = order[i + 1];

    double total = 0.0;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        if (!method_cfg.isCodeBlock(b))
            continue;
        const auto &succs = graph.succs(b);

        // Direction misses: weight flowing against the laid-out
        // direction pays layoutMissPenalty, exactly as the engines
        // charge it at run time.
        std::uint32_t predicted = ~0u;
        switch (method_cfg.terminator[b]) {
        case bytecode::TerminatorKind::Cond:
            predicted = branch_layout[b] == 1 ? 0u : 1u;
            break;
        case bytecode::TerminatorKind::Switch:
            predicted =
                (branch_layout[b] >= 0 &&
                 static_cast<std::size_t>(branch_layout[b]) < succs.size())
                    ? static_cast<std::uint32_t>(branch_layout[b])
                    : static_cast<std::uint32_t>(succs.size() - 1);
            break;
        default:
            break;
        }
        if (predicted != ~0u) {
            for (std::uint32_t i = 0; i < succs.size(); ++i) {
                if (i == predicted)
                    continue;
                total += static_cast<double>(cost.layoutMissPenalty) *
                         static_cast<double>(edgeWeight(weights, b, i));
            }
        }

        // Chain breaks: weight leaving for a code block that does not
        // immediately follow us in the layout pays the modeled i-cache
        // refill. Edges to the synthetic exit never break a chain.
        for (std::uint32_t i = 0; i < succs.size(); ++i) {
            const cfg::BlockId dst = succs[i];
            if (!method_cfg.isCodeBlock(dst) || dst == next[b])
                continue;
            total += static_cast<double>(cost.icacheBreakPenalty) *
                     static_cast<double>(edgeWeight(weights, b, i));
        }
    }
    return total;
}

ChainLayout
computeChainLayout(const bytecode::MethodCfg &method_cfg,
                   const std::vector<std::vector<std::uint64_t>> &weights,
                   const vm::CostModel &cost)
{
    const cfg::Graph &graph = method_cfg.graph;

    std::vector<cfg::BlockId> natural;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b)
        if (method_cfg.isCodeBlock(b))
            natural.push_back(b);

    ChainLayout result;
    result.baselineCost = estimateLayoutCost(
        method_cfg, weights, natural,
        std::vector<std::int16_t>(graph.numBlocks(), -1), cost);

    const std::vector<std::uint64_t> inflow = blockInflow(graph, weights);
    std::uint64_t total_weight = 0;
    for (cfg::BlockId b : natural)
        total_weight += inflow[b];

    if (total_weight == 0) {
        // No profile: keep the natural order, predict nothing.
        result.order = natural;
        result.branchLayout.assign(graph.numBlocks(), -1);
        result.estimatedCost = result.baselineCost;
        return result;
    }

    // Hot/cold split by cumulative coverage: the hottest blocks that
    // together cover kHotCutoffPercentile of all weight are laid out by
    // chain merging; zero-weight blocks are always cold.
    std::vector<cfg::BlockId> by_weight = natural;
    std::sort(by_weight.begin(), by_weight.end(),
              [&](cfg::BlockId a, cfg::BlockId b) {
                  if (inflow[a] != inflow[b])
                      return inflow[a] > inflow[b];
                  return a < b;
              });
    std::vector<bool> hot(graph.numBlocks(), false);
    const double cutoff =
        kHotCutoffPercentile * static_cast<double>(total_weight);
    std::uint64_t covered = 0;
    for (cfg::BlockId b : by_weight) {
        if (inflow[b] == 0)
            break;
        if (static_cast<double>(covered) >= cutoff)
            break;
        hot[b] = true;
        covered += inflow[b];
    }

    // Pettis-Hansen bottom-up merging: each hot block starts its own
    // chain; candidate edges, hottest first, merge the chain *ending*
    // at their source with the chain *starting* at their target.
    std::vector<std::vector<cfg::BlockId>> chains(graph.numBlocks());
    std::vector<std::uint32_t> chain_of(graph.numBlocks(), ~0u);
    for (cfg::BlockId b : natural) {
        if (!hot[b])
            continue;
        chains[b] = {b};
        chain_of[b] = b;
    }

    struct Candidate
    {
        std::uint64_t weight;
        cfg::BlockId src;
        std::uint32_t index;
        cfg::BlockId dst;
    };
    std::vector<Candidate> candidates;
    for (cfg::BlockId b : natural) {
        if (!hot[b])
            continue;
        const auto &succs = graph.succs(b);
        std::uint64_t outflow = 0;
        for (std::uint32_t i = 0; i < succs.size(); ++i)
            outflow += edgeWeight(weights, b, i);
        for (std::uint32_t i = 0; i < succs.size(); ++i) {
            const cfg::BlockId dst = succs[i];
            const std::uint64_t w = edgeWeight(weights, b, i);
            if (w == 0 || dst == b || !hot[dst])
                continue;
            if (static_cast<double>(w) <
                kMinFlowRatio * static_cast<double>(outflow))
                continue;
            candidates.push_back({w, b, i, dst});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.index < b.index;
              });

    for (const Candidate &c : candidates) {
        const std::uint32_t sc = chain_of[c.src];
        const std::uint32_t dc = chain_of[c.dst];
        if (sc == dc)
            continue;
        if (chains[sc].back() != c.src || chains[dc].front() != c.dst)
            continue;
        if (chains[sc].size() + chains[dc].size() > kMaxChainLength)
            continue;
        for (cfg::BlockId b : chains[dc]) {
            chains[sc].push_back(b);
            chain_of[b] = sc;
        }
        chains[dc].clear();
    }

    // Order the chains: the chain holding the method's entry code block
    // leads (execution starts there), then descending total weight,
    // block ids breaking ties. Cold blocks keep natural order.
    cfg::BlockId entry_block = cfg::kInvalidBlock;
    if (!graph.succs(graph.entry()).empty())
        entry_block = graph.succs(graph.entry())[0];

    struct ChainInfo
    {
        std::uint32_t id;
        std::uint64_t weight;
        cfg::BlockId min_block;
        bool is_entry;
    };
    std::vector<ChainInfo> chain_order;
    for (std::uint32_t c = 0; c < chains.size(); ++c) {
        if (chains[c].empty())
            continue;
        ChainInfo info{c, 0, cfg::kInvalidBlock, false};
        for (cfg::BlockId b : chains[c]) {
            info.weight += inflow[b];
            info.min_block = std::min(info.min_block, b);
            if (b == entry_block)
                info.is_entry = true;
        }
        chain_order.push_back(info);
    }
    std::sort(chain_order.begin(), chain_order.end(),
              [](const ChainInfo &a, const ChainInfo &b) {
                  if (a.is_entry != b.is_entry)
                      return a.is_entry;
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  return a.min_block < b.min_block;
              });

    std::vector<cfg::BlockId> chained;
    for (const ChainInfo &info : chain_order)
        for (cfg::BlockId b : chains[info.id])
            chained.push_back(b);
    for (cfg::BlockId b : natural)
        if (!hot[b])
            chained.push_back(b);
    PEP_ASSERT(chained.size() == natural.size());

    // Score the chained order against the natural order (both with
    // profile-derived directions) and keep the cheaper one; the chain
    // order wins ties.
    std::vector<std::int16_t> chained_layout =
        deriveBranchLayout(method_cfg, weights, chained);
    std::vector<std::int16_t> natural_layout =
        deriveBranchLayout(method_cfg, weights, natural);
    const double chained_cost = estimateLayoutCost(
        method_cfg, weights, chained, chained_layout, cost);
    const double natural_cost = estimateLayoutCost(
        method_cfg, weights, natural, natural_layout, cost);

    if (chained_cost <= natural_cost) {
        result.order = std::move(chained);
        result.branchLayout = std::move(chained_layout);
        result.estimatedCost = chained_cost;
    } else {
        result.order = std::move(natural);
        result.branchLayout = std::move(natural_layout);
        result.estimatedCost = natural_cost;
    }
    return result;
}

} // namespace pep::opt
