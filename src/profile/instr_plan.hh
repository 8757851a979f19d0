#ifndef PEP_PROFILE_INSTR_PLAN_HH
#define PEP_PROFILE_INSTR_PLAN_HH

/**
 * @file
 * The runtime instrumentation plan a compiled method carries: what the
 * path-register instrumentation does on each CFG edge and at each loop
 * header. This is the executable form of "insert instrumentation"
 * (paper Section 3.2 step 3):
 *
 *  - method entry:            r = 0
 *  - CFG edge with value v:   r += v        (omitted when v == 0)
 *  - loop header (HeaderSplit mode): the path ends; its number is
 *    r + endAdd (endAdd is the value of the header's DummyExit edge),
 *    then r = restart (the value of the header's DummyEntry edge)
 *  - back edge (BackEdgeTruncate mode): same end/restart pair attached
 *    to the edge itself
 *  - method exit:             the path's number is r
 *
 * Whether the completed path is *stored* is up to the profiler: full
 * BLPP stores every path (count[r]++), PEP stores only at samples.
 */

#include <cstdint>
#include <vector>

#include "profile/numbering.hh"
#include "profile/pdag.hh"

namespace pep::profile {

/** How edge increments are placed. */
enum class PlacementKind : std::uint8_t
{
    /** r += Val(e) directly on every nonzero-valued edge. */
    Direct,

    /** Ball-Larus event counting: increments only on the chords of a
     *  maximal-frequency spanning tree (spanning_placement.hh). */
    SpanningTree,
};

/** What happens to the path register when a CFG edge is taken. */
struct EdgeAction
{
    /** Value added to r (0 means no instrumentation on this edge). */
    std::uint64_t increment = 0;

    /** True for truncated back edges (BackEdgeTruncate mode only). */
    bool endsPath = false;

    /** Added to r to form the completed path's number. */
    std::uint64_t endAdd = 0;

    /** New r value after the path ends. */
    std::uint64_t restart = 0;
};

/** Path end/restart at a split loop header (HeaderSplit mode). */
struct HeaderAction
{
    bool endsPath = false;
    std::uint64_t endAdd = 0;
    std::uint64_t restart = 0;
};

/** Per-method instrumentation plan. */
struct InstrumentationPlan
{
    DagMode mode = DagMode::HeaderSplit;

    /** False when numbering overflowed: no path instrumentation. */
    bool enabled = true;

    /** Total acyclic paths in the method's P-DAG. */
    std::uint64_t totalPaths = 0;

    /** Per CFG block; endsPath only for headers in HeaderSplit mode. */
    std::vector<HeaderAction> headerActions;

    /** Number of edges carrying a nonzero increment (static cost). */
    std::size_t numInstrumentedEdges = 0;

    /**
     * Per CFG edge: one contiguous array indexed by the dense edge id
     * edgeBase[src] + index, where edgeBase holds prefix sums of
     * per-block successor counts (numBlocks + 1 entries, so
     * edgeBase.back() == total edge count). This is the only edge
     * table: builders write it, the checker proves it and the engines
     * execute it.
     */
    std::vector<EdgeAction> flatEdgeActions;
    std::vector<std::uint32_t> edgeBase;

    /** Dense id of a CFG edge in flatEdgeActions. */
    std::uint32_t
    flatEdgeId(cfg::EdgeRef edge) const
    {
        return edgeBase[edge.src] + edge.index;
    }

    /** Action for a CFG edge. */
    const EdgeAction &
    flatAction(cfg::EdgeRef edge) const
    {
        return flatEdgeActions[flatEdgeId(edge)];
    }
};

/** Build the runtime plan from a numbered P-DAG. */
InstrumentationPlan buildInstrumentationPlan(
    const bytecode::MethodCfg &method_cfg, const PDag &pdag,
    const Numbering &numbering);

} // namespace pep::profile

#endif // PEP_PROFILE_INSTR_PLAN_HH
