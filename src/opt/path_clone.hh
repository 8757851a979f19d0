#ifndef PEP_OPT_PATH_CLONE_HH
#define PEP_OPT_PATH_CLONE_HH

/**
 * @file
 * Hot-path cloning (docs/OPT.md). A hot observed path b1..bn that
 * enters through a join block b1 cannot be laid out straight-line in
 * place: b1's other predecessors share its code, so the layout must
 * average over every context. Cloning duplicates the path's blocks as
 * a private copy appended after the original code, retargets one
 * anchor edge a->b1 into the copy, and leaves every off-path edge of
 * the copy pointing back at the original blocks. Inside the copy the
 * on-path direction of every internal branch is *known*, so the
 * optimizer pins it (ClonedBody::forcedLayout) and the path executes
 * with zero direction misses; if the path is a cycle (some bn->b1 edge
 * exists) the copy is closed into a private loop so steady-state
 * iterations stay in cloned code.
 *
 * The product is an ordinary vm::InlinedBody — the same container the
 * inliner produces — so frames, OSR (identity rootPcMap), layout,
 * instrumentation planning, and bytecode-level branch counters all
 * work through the existing BlockOrigin machinery with no new cases.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "bytecode/method.hh"
#include "cfg/graph.hh"
#include "opt/profile_consumer.hh"
#include "vm/inliner.hh"

namespace pep::opt {

/** Maximum path blocks to clone (longer paths are truncated). */
inline constexpr std::uint32_t kMaxPathBlocks = 8;

/** Minimum path blocks worth cloning (below this the copy has no
 *  internal branch to specialize). */
inline constexpr std::uint32_t kMinPathBlocks = 2;

/** A validated cloning decision on one method's original CFG. */
struct ClonePlan
{
    /** Block whose edge into the path head gets retargeted. */
    cfg::BlockId anchor = cfg::kInvalidBlock;

    /** Successor index of the anchor edge (anchor -> blocks[0]). */
    std::uint32_t anchorEdgeIndex = 0;

    /** The path blocks b1..bn, in order; b1 is a join block. */
    std::vector<cfg::BlockId> blocks;

    /** Successor index of each internal on-path edge
     *  (blocks[i] -> blocks[i+1]); size blocks.size()-1. */
    std::vector<std::uint32_t> edgeIndex;

    /** Observed weight that motivated the plan. */
    std::uint64_t weight = 0;
};

/** The synthesized body plus what only the planner knows about it. */
struct ClonedBody
{
    /** nullptr when the plan could not be realized. */
    std::unique_ptr<vm::InlinedBody> body;

    /** Per synthesized-CFG block: branch direction to pin so the
     *  cloned path runs straight-line (CompiledMethod convention),
     *  -1 = leave to the layout pass. Only clone-region blocks with an
     *  on-path Cond/Switch terminator are ever pinned. */
    std::vector<std::int16_t> forcedLayout;

    /** Synthesized block id of the clone of blocks[0]. */
    cfg::BlockId cloneHead = cfg::kInvalidBlock;

    /** First synthesized pc of the clone region (== original method
     *  code size; everything below is the unchanged original code). */
    bytecode::Pc cloneStartPc = 0;

    /** True when some bn->b1 edge was retargeted into the copy,
     *  closing it into a private loop. */
    bool loopClosed = false;
};

/**
 * Validate an observed hot path against the original CFG and turn it
 * into a clone plan: the first edge must be a retargetable anchor
 * (Goto, the taken leg of a Cond, or any Switch leg — never a
 * positional fall-through), the head must be a join block, and the
 * path is truncated at kMaxPathBlocks or at the first repeated block
 * (a k-iteration path wrapping a loop repeats its header; the
 * truncated plan then closes the loop in the copy). Returns nullopt
 * for a path of zero weight, or when no valid plan of at least
 * kMinPathBlocks remains.
 */
std::optional<ClonePlan>
planFromPath(const bytecode::MethodCfg &method_cfg, const HotPath &path);

/**
 * Greedy fallback for edge-only profiles: anchor at the hottest
 * retargetable edge into a join block, then repeatedly follow the
 * hottest successor edge until the path repeats, goes cold, or hits
 * kMaxPathBlocks. Deterministic: ties break on block id, then edge
 * index.
 */
std::optional<ClonePlan>
selectClonePath(const bytecode::MethodCfg &method_cfg,
                const std::vector<std::vector<std::uint64_t>> &weights);

/**
 * Realize a plan: synthesize the cloned body for `method` (which must
 * not itself be a synthesized body). The result verifies against the
 * program, has an identity rootPcMap, and carries BlockOrigin records
 * mapping every terminator — original region and clone region alike —
 * to its original block, so folding the copy's profile onto the
 * original CFG is exact (the differ's check 9 proves this against the
 * oracle).
 */
ClonedBody
buildClonedBody(const bytecode::Program &program,
                bytecode::MethodId method,
                const bytecode::MethodCfg &method_cfg,
                const ClonePlan &plan);

} // namespace pep::opt

#endif // PEP_OPT_PATH_CLONE_HH
