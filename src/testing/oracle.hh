#ifndef PEP_TESTING_ORACLE_HH
#define PEP_TESTING_ORACLE_HH

/**
 * @file
 * The exact profiling oracle of the differential fuzzing harness. It
 * attaches to a Machine like any profiler, but instead of running the
 * path-register semantics it records, per instrumented compiled
 * version, the *literal CFG edge sequence* of every completed path
 * segment (from one path boundary to the next: loop headers and method
 * exits in HeaderSplit mode, back edges and exits in BackEdgeTruncate
 * mode), plus an independent bytecode-level edge-count mirror.
 *
 * This is ground truth by construction — no numbering, no plan, no
 * reconstruction — so the checker can demand that full BLPP's
 * number->count table, mapped through the reconstructor, matches these
 * segment counts *exactly*, and that sampled PEP counts never exceed
 * them. The edge mirror must equal the Machine's own truthEdges(),
 * which pins the oracle's reading of the event stream to the
 * interpreter's.
 *
 * With k_iterations > 1 the oracle records literal *k-windows*: the
 * concatenated edge sequences of up to kEffective consecutive segments
 * of one frame (tumbling, flushed short at method exit and OSR —
 * docs/KBLPP.md). It derives each version's kEffective independently
 * from the structural path count of the version's CFG, never from the
 * engines' plans, so it stays an oracle for the engines' composite-id
 * windowing too. Window keys are unambiguous: segment boundaries are
 * recoverable from the concatenated walk itself (a single segment
 * cannot pass through a split header or contain an interior back
 * edge), so two distinct windows never share a key.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/path_engine.hh"
#include "profile/edge_profile.hh"
#include "profile/pdag.hh"
#include "vm/hooks.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"

namespace pep::testing {

/** One CFG edge packed into 64 bits (src << 32 | successor index). */
inline std::uint64_t
encodeEdge(cfg::EdgeRef edge)
{
    return (static_cast<std::uint64_t>(edge.src) << 32) | edge.index;
}

/** A path segment as its encoded edge sequence. */
using EdgeSeq = std::vector<std::uint64_t>;

/** Encode a reconstructed path's CFG edges for comparison. */
EdgeSeq encodeEdges(const std::vector<cfg::EdgeRef> &edges);

/** "src:index src:index ..." for diagnostics. */
std::string formatEdgeSeq(const EdgeSeq &seq);

/** Exact per-segment frequencies (ordered for deterministic walks). */
using SegmentCounts = std::map<EdgeSeq, std::uint64_t>;

/** Ground truth for one instrumented compiled version. */
struct VersionTruth
{
    const vm::CompiledMethod *compiled = nullptr;

    /** Tables of the code the version executes (the inlined body's
     *  when inlining produced one). */
    const vm::MethodInfo *info = nullptr;

    /** With k == 1 these are per-segment counts; with k > 1 each key
     *  is one k-window's concatenated edge sequence. */
    SegmentCounts segments;

    /** Total windows completed (== segments for k == 1). */
    std::uint64_t completed = 0;

    /** Effective k-BLPP window length for this version, derived from
     *  the structural path count (independent of the engines). */
    std::uint32_t kEff = 1;

    /** Snapshot of a synthesized (inlined or cloned) body's
     *  block-origin fold map, taken at compile time. The oracle's
     *  bytecode mirror folds through this snapshot — never the live
     *  map — so it stays independent of the profiles it checks
     *  (differ checks 1 and 9). Empty for versions running the
     *  method's own code. */
    std::vector<vm::BlockOrigin> originSnapshot;
};

/** The oracle; attach with both addHooks() and addCompileObserver(). */
class ExactOracle final : public vm::ExecutionHooks,
                          public vm::CompileObserver
{
  public:
    ExactOracle(vm::Machine &machine, profile::DagMode mode,
                std::uint32_t k_iterations = 1);

    // CompileObserver
    void onCompile(bytecode::MethodId method,
                   const vm::CompiledMethod &version) override;

    // ExecutionHooks
    void onMethodEntry(const vm::FrameView &frame) override;
    void onMethodExit(const vm::FrameView &frame) override;
    void onEdge(const vm::FrameView &frame, cfg::EdgeRef edge) override;
    void onLoopHeader(const vm::FrameView &frame,
                      cfg::BlockId block) override;
    void onOsr(const vm::FrameView &frame, cfg::BlockId header) override;

    /** Truth for a compiled version; nullptr if never registered. */
    const VersionTruth *truthFor(core::VersionKey key) const;

    /** All registered versions, ordered by (method, version). */
    std::vector<std::pair<core::VersionKey, const VersionTruth *>>
    all() const;

    /** Bytecode-level edge mirror (must equal Machine::truthEdges()). */
    const profile::EdgeProfileSet &edges() const { return edges_; }

    /** Total completed windows across all versions (== completed
     *  segments when k == 1). */
    std::uint64_t totalSegments() const { return totalSegments_; }

    /**
     * Frames whose segment stream was cut mid-path (OSR into a version
     * or block the engine cannot rebind at).
     */
    std::uint64_t droppedFrames() const { return dropped_; }

    /**
     * Frames picked up mid-execution: OSR promoted a frame that was
     * running uninstrumented (baseline) code into an instrumented
     * version, starting a profiled walk at the header with no matching
     * walk ending there. While both this and droppedFrames() are zero,
     * profiled flow is conserved at loop headers too.
     */
    std::uint64_t adoptedFrames() const { return adopted_; }

  private:
    struct FrameRec
    {
        VersionTruth *vt = nullptr;
        EdgeSeq seg;

        /** Concatenated edges of the window's completed segments. */
        EdgeSeq win;
        std::uint32_t winLen = 0;
    };

    VersionTruth *find(bytecode::MethodId method, std::uint32_t version);
    void complete(FrameRec &frame);

    /** Count the frame's (possibly short) window; no-op when empty. */
    void commitWindow(FrameRec &frame);

    vm::Machine &vm_;
    const profile::DagMode mode_;
    const std::uint32_t k_;
    std::map<core::VersionKey, VersionTruth> versions_;
    std::vector<FrameRec> stack_;
    profile::EdgeProfileSet edges_;
    std::uint64_t totalSegments_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t adopted_ = 0;
};

} // namespace pep::testing

#endif // PEP_TESTING_ORACLE_HH
