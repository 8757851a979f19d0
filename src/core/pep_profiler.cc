#include "core/pep_profiler.hh"

#include "core/baseline_profilers.hh"

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
    const vm::CostModel &cost = machine.params().cost;
    sampleCompletions(machine.samplingOpportunityCounts(),
                      {&stats_.pathsCompleted, &stats_.strides,
                       &stats_.samplesTaken, &stats_.samplesRecorded},
                      cost.strideHandlerCost, cost.sampleHandlerCost);
    startBurst(controller_.next());
}

void
PepProfiler::onYieldpoint(const vm::FrameView &frame,
                          vm::YieldpointKind kind, bool tick_fired)
{
    // Sampling opportunities are exactly the locations where BLPP
    // would update the path profile: loop headers and method exits. A
    // tick anywhere else waits for its thread's next one. One mutator
    // thread's tick or completion never acts at another thread's
    // opportunity; the countdown is shared — one switch/sample flag
    // for the whole VM, as in the paper.
    if (kind == vm::YieldpointKind::MethodEntry) {
        if (tick_fired)
            holdTick(frame.thread);
        return;
    }
    const bool held = releaseTick(frame.thread);
    if (tick_fired || held)
        startBurst(controller_.tick());
    charge(sampleOpportunity(frame.thread));
}

void
PepProfiler::onPathSampled(vm::PathPlan &plan, std::uint64_t number)
{
    // Edges are folded when the profile is read (foldSampledPaths).
    auto &vp = static_cast<VersionProfile &>(plan);
    profile::PathRecord &record =
        sampled_.count(vp, vp.paths.insert(number));
    if (!record.expanded) {
        // First sample of this path: trace its edges in the P-DAG
        // (Section 3.3) and cache the expansion.
        ++stats_.firstTimeExpansions;
        profile::expandRecord(record, *vp.state->reconstructor, number,
                              &vp.state->kpath);
    }
}

void
PepProfiler::foldSampledPaths() const
{
    sampled_.drain([this](VersionProfile &vp, std::uint64_t /*number*/,
                          const profile::PathRecord &record,
                          std::uint64_t gain) {
        foldPathEdges(edges_, *vp.state, record, gain);
    });
}

const profile::MethodEdgeProfile *
PepProfiler::layoutProfile(bytecode::MethodId method)
{
    foldSampledPaths();
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
    sampled_.clear();
    edges_.clear();
    stats_ = PepStats{};
    clearThreads();
}

} // namespace pep::core
