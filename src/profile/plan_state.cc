#include "profile/plan_state.hh"

namespace pep::profile {

DagEdgeFreqs
dagEdgeFrequencies(const bytecode::MethodCfg &method_cfg, const PDag &pdag,
                   const MethodEdgeProfile *profile)
{
    if (profile) {
        return estimateDagEdgeFrequencies(method_cfg, pdag,
                                          profile->counts());
    }
    DagEdgeFreqs freqs(pdag.dag.numBlocks());
    for (cfg::BlockId v = 0; v < pdag.dag.numBlocks(); ++v)
        freqs[v].assign(pdag.dag.succs(v).size(), 0.0);
    return freqs;
}

PlanState::PlanState(const bytecode::MethodCfg &method_cfg, DagMode mode,
                     NumberingScheme numbering_scheme,
                     const MethodEdgeProfile *freq_profile,
                     PlacementKind placement_kind)
    : scheme(numbering_scheme), placement(placement_kind),
      pdag(buildPDag(method_cfg, mode))
{
    const DagEdgeFreqs freqs =
        dagEdgeFrequencies(method_cfg, pdag, freq_profile);
    numbering = numberPaths(
        pdag, scheme, scheme == NumberingScheme::BallLarus ? nullptr : &freqs);
    plan = buildInstrumentationPlan(method_cfg, pdag, numbering);
    if (!plan.enabled)
        return;
    if (placement == PlacementKind::SpanningTree) {
        spanning = computeSpanningPlacement(pdag, numbering, &freqs);
        applySpanningPlacement(method_cfg, pdag, spanning, plan);
    }
    reconstructor =
        std::make_unique<PathReconstructor>(method_cfg, pdag, numbering);
}

} // namespace pep::profile
