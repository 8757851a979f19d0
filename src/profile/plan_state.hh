#ifndef PEP_PROFILE_PLAN_STATE_HH
#define PEP_PROFILE_PLAN_STATE_HH

/**
 * @file
 * The one builder of a method's path instrumentation: the three quick
 * passes an optimizing compile runs (paper Sections 3.4 and 6.2) —
 * P-DAG, numbering and instrumentation insertion — then the optional
 * spanning-tree placement and the path reconstructor. The path
 * engines, lint, the plan checker's tests and the micro-benchmarks all
 * build through it, so lint checks exactly the plans the engines
 * execute. It takes no k: k-BLPP windowing (docs/KBLPP.md) only
 * post-processes the segment numbers a plan produces, so no plan can
 * depend on k.
 */

#include <memory>

#include "bytecode/cfg_builder.hh"
#include "profile/edge_profile.hh"
#include "profile/instr_plan.hh"
#include "profile/numbering.hh"
#include "profile/pdag.hh"
#include "profile/reconstruct.hh"
#include "profile/spanning_placement.hh"

namespace pep::profile {

/**
 * DAG edge frequencies for numbering and placement: `profile`'s CFG
 * edge counts mapped onto the P-DAG, or all zero without a profile.
 * Equal frequencies reduce smart numbering and the spanning tree to
 * their stable structural order.
 */
DagEdgeFreqs dagEdgeFrequencies(const bytecode::MethodCfg &method_cfg,
                                const PDag &pdag,
                                const MethodEdgeProfile *profile);

/**
 * One method's built instrumentation. Built in place and never copied
 * or moved: the reconstructor keeps references into it and to the
 * CFG, which must outlive it.
 */
struct PlanState
{
    /** Build the plan for `method_cfg`, numbered (and, under spanning
     *  placement, weighted) by `freq_profile` — nullptr for none. */
    PlanState(const bytecode::MethodCfg &method_cfg, DagMode mode,
              NumberingScheme numbering_scheme,
              const MethodEdgeProfile *freq_profile,
              PlacementKind placement_kind);

    PlanState(const PlanState &) = delete;
    PlanState &operator=(const PlanState &) = delete;

    const NumberingScheme scheme;
    const PlacementKind placement;

    PDag pdag;
    Numbering numbering;
    InstrumentationPlan plan;

    /** The chord increments applied to the plan; empty unless the
     *  placement is SpanningTree and the plan is enabled. */
    SpanningPlacement spanning;

    /** Null when the numbering overflowed (plan disabled). */
    std::unique_ptr<PathReconstructor> reconstructor;
};

} // namespace pep::profile

#endif // PEP_PROFILE_PLAN_STATE_HH
