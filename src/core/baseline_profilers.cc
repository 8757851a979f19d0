#include "core/baseline_profilers.hh"

#include "vm/inliner.hh"

namespace pep::core {

FullPathProfiler::FullPathProfiler(vm::Machine &machine,
                                   profile::DagMode mode,
                                   bool charge_costs,
                                   profile::NumberingScheme scheme,
                                   PathStoreKind store,
                                   profile::PlacementKind placement,
                                   std::uint32_t k_iterations)
    : PathEngine(machine, mode, scheme, charge_costs, placement,
                 k_iterations),
      store_(store)
{
}

void
FullPathProfiler::pathCompleted(VersionProfile &vp,
                                std::uint64_t path_number,
                                std::uint32_t /*thread*/)
{
    // count[r]++ — the load-increment-store / hash call that dominates
    // Ball-Larus overhead (Section 3.2).
    charge(store_ == PathStoreKind::Hash
               ? vm_.params().cost.pathStoreHashCost
               : vm_.params().cost.pathStoreArrayCost);
    vp.paths.addSample(path_number);
    ++pathsStored_;
}

InstrEdgeProfiler::InstrEdgeProfiler(vm::Machine &machine,
                                     bool charge_costs)
    : vm_(machine), chargeCosts_(charge_costs)
{
    std::vector<const bytecode::MethodCfg *> cfgs;
    cfgs.reserve(machine.numMethods());
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        cfgs.push_back(
            &machine.info(static_cast<bytecode::MethodId>(m)).cfg);
    }
    edges_ = profile::EdgeProfileSet(cfgs);
}

void
InstrEdgeProfiler::onEdge(const vm::FrameView &frame, cfg::EdgeRef edge)
{
    // Instrument branches in optimized code only (the baseline
    // compiler already has its own edge instrumentation).
    if (frame.version->level == vm::OptLevel::Baseline)
        return;
    const auto kind = vm_.info(frame.method).cfg.terminator[edge.src];
    if (kind != bytecode::TerminatorKind::Cond &&
        kind != bytecode::TerminatorKind::Switch) {
        return;
    }
    if (chargeCosts_)
        vm_.chargeCycles(vm_.params().cost.edgeCounterCost);
    edges_.perMethod[frame.method].addEdge(edge);
}

profile::EdgeProfileSet
edgeProfileFromPaths(vm::Machine &machine, PathEngine &engine)
{
    std::vector<const bytecode::MethodCfg *> cfgs;
    cfgs.reserve(machine.numMethods());
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        cfgs.push_back(
            &machine.info(static_cast<bytecode::MethodId>(m)).cfg);
    }
    profile::EdgeProfileSet result(cfgs);

    for (auto &[key, vp] : engine.versionProfiles()) {
        const MethodProfilingState &state = *vp->state;
        if (!state.reconstructor)
            continue;
        // A synthesized (inlined or cloned) version's paths run over
        // its own CFG; they fold onto the bytecode tables like truth.
        const vm::InlinedBody *inlined =
            state.compiled ? state.compiled->inlinedBody.get() : nullptr;
        vp->paths.ensureExpanded(*state.reconstructor, &state.kpath);
        for (const auto &[number, record] : vp->paths.paths()) {
            for (const cfg::EdgeRef &edge : record.cfgEdges)
                vm::foldEdge(result, key.first, inlined, edge,
                             record.count);
        }
    }
    return result;
}

} // namespace pep::core
