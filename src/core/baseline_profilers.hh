#ifndef PEP_CORE_BASELINE_PROFILERS_HH
#define PEP_CORE_BASELINE_PROFILERS_HH

/**
 * @file
 * Reference profilers the paper compares against (Sections 2, 5.1):
 *
 *  - FullPathProfiler: stores *every* completed path with a hash-table
 *    update, i.e. classic instrumentation-based path profiling. With
 *    DagMode::HeaderSplit it mimics PEP's instrumentation (the paper's
 *    "perfect" path profiler); with DagMode::BackEdgeTruncate it is
 *    Ball-Larus path profiling proper. With charge_costs=false it is a
 *    zero-overhead ground-truth recorder for accuracy evaluation.
 *
 *  - InstrEdgeProfiler: instrumentation-based edge profiling in
 *    optimized code — a taken/not-taken counter update on every
 *    executed branch (the paper's perfect edge profiler).
 */

#include "core/path_engine.hh"
#include "profile/edge_profile.hh"

namespace pep::core {

/** How a full path profiler implements count[r]++. */
enum class PathStoreKind : std::uint8_t
{
    Hash,  ///< hash call (the paper's perfect profiler; expensive)
    Array, ///< direct array update (classic BLPP; cheaper)
};

/** Stores every completed path (count[r]++ at every path end). */
class FullPathProfiler final : public PathEngine
{
  public:
    FullPathProfiler(vm::Machine &machine, profile::DagMode mode,
                     bool charge_costs,
                     profile::NumberingScheme scheme =
                         profile::NumberingScheme::BallLarus,
                     PathStoreKind store = PathStoreKind::Hash,
                     profile::PlacementKind placement =
                         profile::PlacementKind::Direct,
                     std::uint32_t k_iterations = 1);

    /** Total paths stored. */
    std::uint64_t pathsStored() const { return pathsStored_; }

  protected:
    void pathCompleted(VersionProfile &vp, std::uint64_t path_number,
                       std::uint32_t thread) override;

  private:
    const PathStoreKind store_;
    std::uint64_t pathsStored_ = 0;
};

/** Taken/not-taken counters on every branch in optimized code. */
class InstrEdgeProfiler final : public vm::ExecutionHooks
{
  public:
    /** charge_costs=false gives a free truth recorder (rarely needed;
     *  the Machine already keeps ground-truth edge counts). */
    explicit InstrEdgeProfiler(vm::Machine &machine,
                               bool charge_costs = true);

    void onEdge(const vm::FrameView &frame, cfg::EdgeRef edge) override;

    const profile::EdgeProfileSet &edges() const { return edges_; }

    void clear() { edges_.clear(); }

  private:
    vm::Machine &vm_;
    const bool chargeCosts_;
    profile::EdgeProfileSet edges_;
};

/**
 * Add `count` executions of one path of `state`'s version to `edges`:
 * each CFG edge of the expanded `record` counts at its bytecode-level
 * edge (forEachBytecodeEdge, core/path_gains.hh), so the branches of an
 * inlined or cloned version count at the bytecode branches they came
 * from (Section 4.3). PEP's edge profile and edgeProfileFromPaths both
 * add through it.
 */
void foldPathEdges(profile::EdgeProfileSet &edges,
                   const MethodProfilingState &state,
                   const profile::PathRecord &record, std::uint64_t count);

/**
 * Derive the edge profile implied by an engine's collected path
 * profiles (expansion-weighted accumulation across all instrumented
 * versions). Used both for PEP-vs-perfect comparisons and to build the
 * paper's "perfect edge profile generated by instrumentation-based
 * path profiling" (Section 6.4).
 */
profile::EdgeProfileSet edgeProfileFromPaths(vm::Machine &machine,
                                             PathEngine &engine);

} // namespace pep::core

#endif // PEP_CORE_BASELINE_PROFILERS_HH
