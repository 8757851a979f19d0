#include "profile/instr_plan.hh"

#include "support/panic.hh"

namespace pep::profile {

InstrumentationPlan
buildInstrumentationPlan(const bytecode::MethodCfg &method_cfg,
                         const PDag &pdag, const Numbering &numbering)
{
    const cfg::Graph &graph = method_cfg.graph;

    InstrumentationPlan plan;
    plan.mode = pdag.mode;
    plan.headerActions.assign(graph.numBlocks(), HeaderAction{});
    plan.edgeBase.resize(graph.numBlocks() + 1);
    std::uint32_t next = 0;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        plan.edgeBase[b] = next;
        next += static_cast<std::uint32_t>(graph.succs(b).size());
    }
    plan.edgeBase.back() = next;
    plan.flatEdgeActions.assign(next, EdgeAction{});

    if (numbering.overflow) {
        plan.enabled = false;
        return plan;
    }
    plan.totalPaths = numbering.totalPaths;

    // Edge increments from the DAG edge values.
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        for (std::uint32_t i = 0; i < graph.succs(b).size(); ++i) {
            const cfg::EdgeRef dag_edge = pdag.dagEdgeForCfgEdge[b][i];
            if (dag_edge.src == cfg::kInvalidBlock)
                continue; // truncated back edge; handled below
            const std::uint64_t value = numbering.edgeValue(dag_edge);
            plan.flatEdgeActions[plan.flatEdgeId({b, i})].increment =
                value;
            if (value != 0)
                ++plan.numInstrumentedEdges;
        }
    }

    if (pdag.mode == DagMode::HeaderSplit) {
        for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
            if (!method_cfg.isLoopHeader[b])
                continue;
            HeaderAction &action = plan.headerActions[b];
            action.endsPath = true;
            action.endAdd =
                numbering.edgeValue(pdag.headerDummyExit[b]);
            action.restart =
                numbering.edgeValue(pdag.headerDummyEntry[b]);
        }
    } else {
        for (std::size_t k = 0; k < method_cfg.backEdges.size(); ++k) {
            const cfg::EdgeRef back = method_cfg.backEdges[k];
            EdgeAction &action =
                plan.flatEdgeActions[plan.flatEdgeId(back)];
            action.endsPath = true;
            action.endAdd =
                numbering.edgeValue(pdag.backEdgeDummyExit[k]);
            const cfg::BlockId header = graph.edgeDst(back);
            action.restart =
                numbering.edgeValue(pdag.headerDummyEntry[header]);
        }
    }

    return plan;
}

} // namespace pep::profile
