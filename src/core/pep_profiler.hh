#ifndef PEP_CORE_PEP_PROFILER_HH
#define PEP_CORE_PEP_PROFILER_HH

/**
 * @file
 * The PEP profiler: all-the-time path-register instrumentation with
 * sampled path storage (paper Section 3). A completed path costs only
 * its register operations: the register stores its number (a k-window
 * id for k > 1) into the thread's latest-completion slot and counts it
 * in PepStats::pathsCompleted, with no call into this class
 * (vm::PathRegisterHooks::storeCompletions). On every loop-header and
 * method-exit yieldpoint the just-completed path is in that slot; when
 * the sampling controller says "sample", the handler increments that
 * path's frequency and folds the path's edges into the continuous edge
 * profile (reconstructing the edge sequence the first time a path is
 * seen, cached thereafter — Section 4.3).
 *
 * PepProfiler is also a LayoutSource: when the VM recompiles a method,
 * it supplies its continuous edge profile (falling back to the one-time
 * baseline profile while it has no samples for the method), which is
 * how PEP drives optimization in Figure 11.
 */

#include <cstdint>

#include "core/path_engine.hh"
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
     * Sampling decisions happen at yieldpoints. The threaded engine
     * calls this only at ticks and while yieldpointsArmed(): the
     * controller is mid-burst or some thread carries a tick to its next
     * opportunity. Everywhere else the call would consult a dormant
     * controller, get Idle and change nothing — the stored completion
     * expires by itself (Machine::samplingOpportunities moves on).
     */
    void onYieldpoint(const vm::FrameView &frame,
                      vm::YieldpointKind kind, bool tick_fired) override;

    // LayoutSource
    const profile::MethodEdgeProfile *
    layoutProfile(bytecode::MethodId method) override;

    /** The continuous edge profile derived from sampled paths. */
    const profile::EdgeProfileSet &edgeProfile() const { return edges_; }

    /**
     * Mutable access to the continuous edge profile, for fault
     * injection only (the differ's `impossible-profile` self-test
     * corrupts one count to prove the realizability checker rejects
     * it).
     */
    profile::EdgeProfileSet &edgeProfileForInjection() { return edges_; }

    const PepStats &pepStats() const { return stats_; }

    /** Drop collected profiles (e.g., between replay iterations). */
    void clearProfiles();

  protected:
    const profile::MethodEdgeProfile *
    freqProfileFor(bytecode::MethodId method) override;

  private:
    /**
     * Per-virtual-thread sampling state beside the register's
     * latest-completion slot (sampleable only at its thread's next
     * sampling opportunity): the tick signal carried from any
     * yieldpoint to that thread's next opportunity. One mutator
     * thread's completion must never be sampled against another
     * thread's yieldpoint, so both are keyed by FrameView::thread. The
     * sampling *controller* stays shared — one switch/sample flag for
     * the whole VM, as in the paper.
     */
    struct PendingSample
    {
        bool tickPending = false;
    };

    PendingSample &pendingFor(std::uint32_t thread);

    /** Recompute yieldpointsArmed() after the controller or a tick
     *  flag moved. */
    void rearm();

    /** Fold one sampled path's edges into the continuous edge profile,
     *  mapping inlined branches to their bytecode-level counters. */
    void recordEdges(const MethodProfilingState &state,
                     const std::vector<cfg::EdgeRef> &cfg_edges);

    SamplingController &controller_;

    profile::EdgeProfileSet edges_;
    PepStats stats_;

    /** Indexed by virtual thread id; single-threaded runs use slot 0. */
    std::vector<PendingSample> pending_;

    /** Threads whose tickPending is set. */
    std::uint32_t ticksPending_ = 0;
};

} // namespace pep::core

#endif // PEP_CORE_PEP_PROFILER_HH
