#include "opt/pipeline.hh"

#include <cstdlib>
#include <string>

#include "support/panic.hh"

namespace pep::opt {

std::optional<PipelineOptions>
pipelineOptionsFromEnv()
{
    const char *env = std::getenv("PEP_OPT");
    if (!env || !*env)
        return std::nullopt;
    PipelineOptions options;
    options.layout = false;
    options.clone = false;
    const std::string value(env);
    std::size_t pos = 0;
    while (pos <= value.size()) {
        const std::size_t comma = value.find(',', pos);
        const std::string token = value.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (token == "layout") {
            options.layout = true;
        } else if (token == "clone") {
            options.clone = true;
        } else if (!token.empty() && token != "none") {
            // A CI matrix typo must fail loudly, not run unoptimized.
            support::fatal("PEP_OPT=" + value + ": unknown pass \"" +
                           token +
                           "\" (expected none|layout|clone|layout,clone)");
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return options;
}

namespace {

/**
 * Profile weights for the version's CFG, folded through BlockOrigin:
 * a synthesized block reads the counter row of its original block
 * (the paper's Section 4.3 sharing, in the layout direction).
 */
std::vector<std::vector<std::uint64_t>>
foldWeights(const vm::Machine &machine, const vm::CompiledMethod &cm,
            const bytecode::MethodCfg &version_cfg,
            ProfileConsumer &consumer)
{
    const cfg::Graph &graph = version_cfg.graph;
    std::vector<std::vector<std::uint64_t>> weights(graph.numBlocks());
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b)
        weights[b].assign(graph.succs(b).size(), 0);
    (void)machine;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        const vm::BlockOrigin origin =
            cm.inlinedBody ? cm.inlinedBody->blockOrigin[b]
                           : vm::BlockOrigin{cm.method, b};
        if (!origin.valid())
            continue;
        const profile::MethodEdgeProfile *profile =
            consumer.edges(origin.method);
        if (!profile)
            continue;
        const auto &counts = profile->counts();
        if (origin.block >= counts.size())
            continue;
        const auto &row = counts[origin.block];
        for (std::size_t i = 0;
             i < row.size() && i < weights[b].size(); ++i)
            weights[b][i] = row[i];
    }
    return weights;
}

bool
anyWeight(const std::vector<std::vector<std::uint64_t>> &weights)
{
    for (const auto &row : weights)
        for (std::uint64_t w : row)
            if (w > 0)
                return true;
    return false;
}

} // namespace

void
OptPipeline::run(vm::Machine &machine, vm::CompiledMethod &cm)
{
    ++stats_.runs;
    const bytecode::MethodCfg &original_cfg = machine.info(cm.method).cfg;

    // 1. Cloning. Only plain bodies are cloned — a version the inliner
    // already synthesized keeps its body (its path profiles live in
    // the synthesized coordinate space; see PepConsumer).
    std::vector<std::int16_t> forced;
    if (options_.clone && !cm.inlinedBody) {
        std::optional<ClonePlan> plan;
        for (const HotPath &path : consumer_.hotPaths(cm.method)) {
            plan = planFromPath(original_cfg, path);
            if (plan)
                break;
        }
        if (!plan) {
            const auto weights =
                foldWeights(machine, cm, original_cfg, consumer_);
            plan = selectClonePath(original_cfg, weights);
        }
        if (plan) {
            ClonedBody cloned = buildClonedBody(
                machine.program(), cm.method, original_cfg, *plan);
            if (cloned.body) {
                cm.inlinedBody = std::move(cloned.body);
                cm.cloneApplied = true;
                forced = std::move(cloned.forcedLayout);
                // The layout vector must match the new CFG; the
                // layout step below repopulates it.
                cm.branchLayout.assign(
                    cm.inlinedBody->info.cfg.graph.numBlocks(), -1);
                ++stats_.clonesApplied;
            }
        } else {
            ++stats_.clonesDeclined;
        }
    }

    const bytecode::MethodCfg &version_cfg =
        cm.inlinedBody ? cm.inlinedBody->info.cfg : original_cfg;

    // 2. Chain layout over the (possibly cloned) CFG.
    if (options_.layout) {
        const auto weights =
            foldWeights(machine, cm, version_cfg, consumer_);
        if (anyWeight(weights)) {
            ChainLayout layout = computeChainLayout(
                version_cfg, weights, machine.params().cost);
            cm.branchLayout = std::move(layout.branchLayout);
            cm.layoutOrder = std::move(layout.order);
            ++stats_.layoutsApplied;
        }
    }

    // 3. The clone's pinned on-path directions win over the averaged
    // profile — inside the copy the continuation is known exactly.
    for (cfg::BlockId b = 0; b < forced.size(); ++b) {
        if (forced[b] >= 0 && b < cm.branchLayout.size())
            cm.branchLayout[b] = forced[b];
    }
}

} // namespace pep::opt
