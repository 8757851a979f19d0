#ifndef PEP_CORE_PEP_PROFILER_HH
#define PEP_CORE_PEP_PROFILER_HH

/**
 * @file
 * The PEP profiler: all-the-time path-register instrumentation with
 * sampled path storage (paper Section 3). A completed path costs only
 * its register operations: the register stores its number (a k-window
 * id for k > 1) into the thread's latest-completion slot and counts it
 * in PepStats::pathsCompleted, with no call into this class
 * (vm::PathRegisterHooks::sampleCompletions). On every loop-header and
 * method-exit yieldpoint the just-completed path is in that slot, and
 * the register's sampling countdown decides what the handler does:
 * idle, stride or sample, counted in PepStats with no call either.
 * This class hands the countdown its bursts — from the sampling
 * controller, at ticks and when a burst runs out — and records a
 * sample that found a path: one probe of the version's path table and
 * one increment (reconstructing the edge sequence the first time a
 * path is seen, cached thereafter — Section 4.3). The continuous edge
 * profile is folded where it is read: every accessor first adds each
 * path sampled since the last read, once, with the count it gained,
 * so every read equals edgeProfileFromPaths over this profiler's own
 * path table.
 *
 * PepProfiler is also a LayoutSource: when the VM recompiles a method,
 * it supplies its continuous edge profile (falling back to the one-time
 * baseline profile while it has no samples for the method), which is
 * how PEP drives optimization in Figure 11.
 */

#include <cstdint>

#include "core/path_engine.hh"
#include "core/path_gains.hh"
#include "core/sampling.hh"
#include "profile/edge_profile.hh"
#include "profile/path_profile.hh"

namespace pep::core {

/** PEP runtime statistics. */
struct PepStats
{
    std::uint64_t pathsCompleted = 0;
    std::uint64_t samplesTaken = 0;
    std::uint64_t samplesRecorded = 0;
    std::uint64_t strides = 0;
    std::uint64_t firstTimeExpansions = 0;
};

/** Options for the PEP instrumentation pass. */
struct PepOptions
{
    /** Numbering scheme (the paper's default is Smart). */
    profile::NumberingScheme scheme = profile::NumberingScheme::Smart;

    /**
     * Where paths end. HeaderSplit matches the default yieldpoint
     * placement; use BackEdgeTruncate together with
     * SimParams::yieldpointsOnBackEdges (the Section 3.2 alternative,
     * which restores exact BLPP path semantics).
     */
    profile::DagMode mode = profile::DagMode::HeaderSplit;

    /** Increment placement (Direct, or Ball-Larus spanning-tree event
     *  counting; see profile/spanning_placement.hh). */
    profile::PlacementKind placement = profile::PlacementKind::Direct;

    /** k-BLPP window length (docs/KBLPP.md): sampled path ids cover
     *  windows of up to k consecutive iterations. 1 = classic PEP. */
    std::uint32_t kIterations = 1;
};

/** The hybrid instrumentation + sampling profiler. */
class PepProfiler final : public PathEngine, public vm::LayoutSource
{
  public:
    /**
     * The controller is not owned and must outlive the profiler.
     * Attach with machine.addHooks(&pep) and
     * machine.addCompileObserver(&pep); pass &pep to
     * machine.setLayoutSource() to let PEP drive optimization.
     */
    PepProfiler(vm::Machine &machine, SamplingController &controller,
                const PepOptions &options = {});

    /**
     * A tick arms the controller's burst at its thread's next sampling
     * opportunity, and every opportunity runs one countdown step. The
     * switch engine calls this at every yieldpoint; the threaded
     * engine only at ticks and at an opportunity a tick waits for
     * (tickHeld), running the countdown step itself everywhere else.
     */
    void onYieldpoint(const vm::FrameView &frame,
                      vm::YieldpointKind kind, bool tick_fired) override;

    /** Count the sample in the path's version table. */
    void onPathSampled(vm::PathPlan &plan, std::uint64_t number) override;

    /** The controller's next burst. */
    vm::SampleBurst onBurstEnd() override { return controller_.next(); }

    // LayoutSource
    const profile::MethodEdgeProfile *
    layoutProfile(bytecode::MethodId method) override;

    /** The continuous edge profile: every sampled path folded, up to
     *  this read. */
    const profile::EdgeProfileSet &
    edgeProfile() const
    {
        foldSampledPaths();
        return edges_;
    }

    /**
     * Mutable access to the continuous edge profile, for fault
     * injection only (the differ's `impossible-profile` self-test
     * corrupts one count of the folded profile to prove the
     * realizability checker rejects it).
     */
    profile::EdgeProfileSet &
    edgeProfileForInjection()
    {
        foldSampledPaths();
        return edges_;
    }

    const PepStats &pepStats() const { return stats_; }

    /** Drop collected profiles, stats, stored completions and held
     *  ticks (e.g., between replay iterations). A burst in progress
     *  runs on. */
    void clearProfiles();

  protected:
    const profile::MethodEdgeProfile *
    freqProfileFor(bytecode::MethodId method) override;

  private:
    /** Dropping the path records alone would leave sampled_ naming
     *  records that are gone; clearProfiles() drops both. */
    using PathEngine::clearPathProfiles;

    /** Fold every record sampled since the last fold into edges_
     *  with the count it gained. */
    void foldSampledPaths() const;

    SamplingController &controller_;

    /** Folded up to the last read (see foldSampledPaths). */
    mutable profile::EdgeProfileSet edges_;
    mutable PathGains sampled_;
    PepStats stats_;
};

} // namespace pep::core

#endif // PEP_CORE_PEP_PROFILER_HH
