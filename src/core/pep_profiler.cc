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
}

PepProfiler::PendingSample &
PepProfiler::pendingFor(std::uint32_t thread)
{
    if (pending_.size() <= thread)
        pending_.resize(thread + 1);
    return pending_[thread];
}

void
PepProfiler::pathCompleted(VersionProfile &vp, std::uint64_t path_number,
                           std::uint32_t thread)
{
    // The register already holds the number; completing a path costs
    // nothing beyond the register ops PathEngine charged. Storage
    // happens only if the following yieldpoint samples.
    ++stats_.pathsCompleted;
    PendingSample &pending = pendingFor(thread);
    pending.vp = &vp;
    pending.pathNumber = path_number;
    pending.valid = true;
}

void
PepProfiler::onYieldpoint(const vm::FrameView &frame,
                          vm::YieldpointKind kind, bool tick_fired)
{
    PendingSample &pending = pendingFor(frame.thread);
    pending.tickPending = pending.tickPending || tick_fired;

    // Sampling opportunities are exactly the locations where BLPP
    // would update the path profile: loop headers and method exits.
    if (kind == vm::YieldpointKind::MethodEntry)
        return;

    const SampleAction action =
        controller_.onOpportunity(pending.tickPending);
    pending.tickPending = false;

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
        if (pending.valid) {
            ++stats_.samplesRecorded;
            profile::PathRecord &record =
                pending.vp->paths.addSample(pending.pathNumber);
            if (!record.expanded) {
                // First sample of this path: trace its edges in the
                // P-DAG (Section 3.3) and cache the expansion.
                ++stats_.firstTimeExpansions;
                profile::expandRecord(record,
                                      *pending.vp->state->reconstructor,
                                      pending.pathNumber,
                                      &pending.vp->state->kpath);
            }
            recordEdges(*pending.vp->state, record.cfgEdges);
        }
        break;
      }
    }

    // A completed path is sampleable only at the yieldpoint directly
    // following its completion.
    pending.valid = false;
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
}

} // namespace pep::core
