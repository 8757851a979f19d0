#include "core/pep_profiler.hh"

#include "vm/inliner.hh"

namespace pep::core {

PepProfiler::PepProfiler(vm::Machine &machine,
                         SamplingController &controller,
                         const PepOptions &options)
    : PathEngine(machine, options.mode, options.scheme,
                 /*charge_costs=*/true, options.placement,
                 options.kIterations),
      controller_(controller)
{
    std::vector<const bytecode::MethodCfg *> cfgs;
    cfgs.reserve(machine.numMethods());
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        cfgs.push_back(
            &machine.info(static_cast<bytecode::MethodId>(m)).cfg);
    }
    edges_ = profile::EdgeProfileSet(cfgs);
    storeCompletions(machine.samplingOpportunityCounts(),
                     stats_.pathsCompleted);
    rearm();
}

void
PepProfiler::rearm()
{
    setYieldpointsArmed(ticksPending_ > 0 || !controller_.dormant());
}

PepProfiler::PendingSample &
PepProfiler::pendingFor(std::uint32_t thread)
{
    if (pending_.size() <= thread)
        pending_.resize(thread + 1);
    return pending_[thread];
}

void
PepProfiler::onYieldpoint(const vm::FrameView &frame,
                          vm::YieldpointKind kind, bool tick_fired)
{
    PendingSample &pending = pendingFor(frame.thread);
    if (tick_fired && !pending.tickPending) {
        pending.tickPending = true;
        ++ticksPending_;
    }

    // Sampling opportunities are exactly the locations where BLPP
    // would update the path profile: loop headers and method exits.
    if (kind == vm::YieldpointKind::MethodEntry) {
        rearm();
        return;
    }

    const bool tick = pending.tickPending;
    if (tick) {
        pending.tickPending = false;
        --ticksPending_;
    }
    const SampleAction action = controller_.onOpportunity(tick);

    const vm::CostModel &cost = vm_.params().cost;
    switch (action) {
      case SampleAction::Idle:
        break;
      case SampleAction::Stride:
        ++stats_.strides;
        charge(cost.strideHandlerCost);
        break;
      case SampleAction::Sample: {
        ++stats_.samplesTaken;
        charge(cost.sampleHandlerCost);
        // A completed path is sampleable only at the yieldpoint
        // directly following its completion.
        const vm::PathCompletion &latest = latestCompletion(frame.thread);
        if (latest.plan && latest.opportunity ==
                               vm_.samplingOpportunities(frame.thread)) {
            ++stats_.samplesRecorded;
            VersionProfile &vp = static_cast<VersionProfile &>(*latest.plan);
            profile::PathRecord &record = vp.paths.addSample(latest.number);
            if (!record.expanded) {
                // First sample of this path: trace its edges in the
                // P-DAG (Section 3.3) and cache the expansion.
                ++stats_.firstTimeExpansions;
                profile::expandRecord(record, *vp.state->reconstructor,
                                      latest.number, &vp.state->kpath);
            }
            recordEdges(*vp.state, record.cfgEdges);
        }
        break;
      }
    }
    rearm();
}

void
PepProfiler::recordEdges(const MethodProfilingState &state,
                         const std::vector<cfg::EdgeRef> &cfg_edges)
{
    // Inlined or cloned code: several compiled branches map to one
    // bytecode branch and share its counters (Section 4.3).
    const vm::InlinedBody *inlined =
        state.compiled ? state.compiled->inlinedBody.get() : nullptr;
    for (const cfg::EdgeRef &edge : cfg_edges)
        vm::foldEdge(edges_, state.method, inlined, edge);
}

const profile::MethodEdgeProfile *
PepProfiler::layoutProfile(bytecode::MethodId method)
{
    // A handful of sampled paths gives a wildly skewed edge profile
    // (each path marks its edges 100%-biased); demand a minimum amount
    // of evidence before PEP's continuous profile overrides the
    // one-time profile.
    constexpr std::uint64_t kMinEdgeEvidence = 400;
    const profile::MethodEdgeProfile &own = edges_.perMethod[method];
    if (own.totalCount() >= kMinEdgeEvidence)
        return &own;
    const profile::MethodEdgeProfile &one_time =
        vm_.oneTimeEdges().perMethod[method];
    if (one_time.totalCount() > 0)
        return &one_time;
    return own.totalCount() > 0 ? &own : nullptr;
}

const profile::MethodEdgeProfile *
PepProfiler::freqProfileFor(bytecode::MethodId method)
{
    // Profile-guided profiling: place instrumentation using the edge
    // profile collected so far — PEP's own once it exists.
    return layoutProfile(method);
}

void
PepProfiler::clearProfiles()
{
    clearPathProfiles();
    edges_.clear();
    stats_ = PepStats{};
    for (PendingSample &pending : pending_)
        pending = PendingSample{};
    clearCompletions();
    ticksPending_ = 0;
    rearm();
}

} // namespace pep::core
