#ifndef PEP_CORE_PEP_PROFILER_HH
#define PEP_CORE_PEP_PROFILER_HH

/**
 * @file
 * The PEP profiler: all-the-time path-register instrumentation with
 * sampled path storage (paper Section 3). On every loop-header and
 * method-exit yieldpoint the just-completed path's number is available
 * in the path register; when the sampling controller says "sample", the
 * handler increments that path's frequency and folds the path's edges
 * into the continuous edge profile (reconstructing the edge sequence
 * the first time a path is seen, cached thereafter — Section 4.3).
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

    // ExecutionHooks (sampling decisions happen at yieldpoints).
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
    void pathCompleted(VersionProfile &vp, std::uint64_t path_number,
                       std::uint32_t thread) override;

    const profile::MethodEdgeProfile *
    freqProfileFor(bytecode::MethodId method) override;

  private:
    /**
     * Per-virtual-thread sampling state: the most recently completed
     * path (valid until the yieldpoint that follows it consumes it)
     * and the tick signal carried from any yieldpoint to the next
     * sampling opportunity. One mutator thread's completion must never
     * be sampled against another thread's yieldpoint, so this is keyed
     * by FrameView::thread. The sampling *controller* stays shared —
     * one switch/sample flag for the whole VM, as in the paper.
     */
    struct PendingSample
    {
        VersionProfile *vp = nullptr;
        std::uint64_t pathNumber = 0;
        bool valid = false;
        bool tickPending = false;
    };

    PendingSample &pendingFor(std::uint32_t thread);

    /** Fold one sampled path's edges into the continuous edge profile,
     *  mapping inlined branches to their bytecode-level counters. */
    void recordEdges(const MethodProfilingState &state,
                     const std::vector<cfg::EdgeRef> &cfg_edges);

    SamplingController &controller_;

    profile::EdgeProfileSet edges_;
    PepStats stats_;

    /** Indexed by virtual thread id; single-threaded runs use slot 0. */
    std::vector<PendingSample> pending_;
};

} // namespace pep::core

#endif // PEP_CORE_PEP_PROFILER_HH
