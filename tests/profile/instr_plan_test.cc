/**
 * @file
 * Instrumentation-plan tests, including the central simulation
 * property: replaying the plan's register semantics along any
 * reconstructed path reproduces that path's number — i.e., the plan
 * really computes Ball-Larus numbers at run time.
 */

#include <gtest/gtest.h>

#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "profile/instr_plan.hh"
#include "profile/reconstruct.hh"

namespace pep::profile {
namespace {

using bytecode::MethodCfg;

struct Prepared
{
    MethodCfg cfg;
    PDag pdag;
    Numbering numbering;
    InstrumentationPlan plan;
    std::unique_ptr<PathReconstructor> reconstructor;
};

Prepared
prepare(const bytecode::Program &program, DagMode mode)
{
    Prepared p;
    p.cfg = bytecode::buildCfg(program.methods[program.mainMethod]);
    p.pdag = buildPDag(p.cfg, mode);
    p.numbering = numberPaths(p.pdag, NumberingScheme::BallLarus);
    p.plan = buildInstrumentationPlan(p.cfg, p.pdag, p.numbering);
    p.reconstructor = std::make_unique<PathReconstructor>(
        p.cfg, p.pdag, p.numbering);
    return p;
}

/**
 * Execute the plan's register semantics over a reconstructed path's
 * CFG edges and return the completed path number. Mirrors what the
 * interpreter + PathEngine do at run time.
 */
std::uint64_t
simulate(const Prepared &p, const ReconstructedPath &path)
{
    std::uint64_t reg = 0;

    // A path starting at a header begins with r = restart.
    if (path.startHeader != cfg::kInvalidBlock) {
        if (p.plan.mode == DagMode::HeaderSplit) {
            reg = p.plan.headerActions[path.startHeader].restart;
        } else {
            // In back-edge mode the restart is attached to the back
            // edge that *ended the previous path*; all back edges into
            // one header share the header's DummyEntry value, so any
            // of them gives the restart value.
            for (const cfg::EdgeRef &back : p.cfg.backEdges) {
                if (p.cfg.graph.edgeDst(back) == path.startHeader) {
                    reg = p.plan.flatAction(p.cfg, back).restart;
                    break;
                }
            }
        }
    }

    for (std::size_t i = 0; i < path.cfgEdges.size(); ++i) {
        const cfg::EdgeRef e = path.cfgEdges[i];
        const EdgeAction &action = p.plan.flatAction(p.cfg, e);
        if (action.endsPath) {
            // Must be the last edge (a back edge, BackEdgeTruncate).
            EXPECT_EQ(i, path.cfgEdges.size() - 1);
            return reg + action.endAdd;
        }
        reg += action.increment;
    }

    if (path.endHeader != cfg::kInvalidBlock) {
        // HeaderSplit: path ends at the header's yieldpoint.
        EXPECT_TRUE(p.plan.headerActions[path.endHeader].endsPath);
        return reg + p.plan.headerActions[path.endHeader].endAdd;
    }
    return reg; // ended at method exit
}

TEST(InstrPlan, SimulationReproducesEveryNumberHeaderSplit)
{
    const Prepared p =
        prepare(test::figure1Program(), DagMode::HeaderSplit);
    for (std::uint64_t n = 0; n < p.numbering.totalPaths; ++n) {
        const ReconstructedPath path = p.reconstructor->reconstruct(n);
        EXPECT_EQ(simulate(p, path), n) << "path " << n;
    }
}

TEST(InstrPlan, SimulationReproducesEveryNumberBackEdge)
{
    const Prepared p =
        prepare(test::figure1Program(), DagMode::BackEdgeTruncate);
    for (std::uint64_t n = 0; n < p.numbering.totalPaths; ++n) {
        const ReconstructedPath path = p.reconstructor->reconstruct(n);
        EXPECT_EQ(simulate(p, path), n) << "path " << n;
    }
}

TEST(InstrPlan, SimulationHoldsOnRandomPrograms)
{
    int checked = 0;
    for (std::uint64_t seed = 400; seed < 430; ++seed) {
        const bytecode::Program program =
            test::randomStructuredProgram(seed, 8);
        for (const DagMode mode :
             {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
            const Prepared p = prepare(program, mode);
            if (p.numbering.totalPaths > 1500)
                continue;
            ++checked;
            for (std::uint64_t n = 0; n < p.numbering.totalPaths;
                 ++n) {
                const ReconstructedPath path =
                    p.reconstructor->reconstruct(n);
                ASSERT_EQ(simulate(p, path), n)
                    << "seed " << seed << " path " << n;
            }
        }
    }
    EXPECT_GT(checked, 20);
}

TEST(InstrPlan, EdgeIncrementsMatchNumbering)
{
    const Prepared p =
        prepare(test::callSwitchProgram(), DagMode::HeaderSplit);
    const cfg::Graph &graph = p.cfg.graph;
    std::size_t instrumented = 0;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        for (std::uint32_t i = 0; i < graph.succs(b).size(); ++i) {
            const cfg::EdgeRef dag_edge = p.pdag.dagEdgeForCfgEdge[b][i];
            ASSERT_NE(dag_edge.src, cfg::kInvalidBlock);
            EXPECT_EQ(p.plan.flatAction(p.cfg, {b, i}).increment,
                      p.numbering.edgeValue(dag_edge));
            if (p.plan.flatAction(p.cfg, {b, i}).increment != 0)
                ++instrumented;
        }
    }
    EXPECT_EQ(p.plan.numInstrumentedEdges, instrumented);
}

TEST(InstrPlan, HeaderActionsOnlyInHeaderSplitMode)
{
    const bytecode::Program program = test::figure1Program();
    const Prepared split = prepare(program, DagMode::HeaderSplit);
    const Prepared trunc = prepare(program, DagMode::BackEdgeTruncate);

    std::size_t split_headers = 0;
    for (const HeaderAction &action : split.plan.headerActions)
        split_headers += action.endsPath ? 1 : 0;
    EXPECT_EQ(split_headers, split.cfg.numLoopHeaders());

    for (const HeaderAction &action : trunc.plan.headerActions)
        EXPECT_FALSE(action.endsPath);

    std::size_t ending_edges = 0;
    for (const EdgeAction &action : trunc.plan.flatEdgeActions)
        ending_edges += action.endsPath ? 1 : 0;
    EXPECT_EQ(ending_edges, trunc.cfg.backEdges.size());
}

TEST(InstrPlan, DisabledOnOverflow)
{
    const Prepared p =
        prepare(test::figure1Program(), DagMode::HeaderSplit);
    Numbering overflowed = p.numbering;
    overflowed.overflow = true;
    const InstrumentationPlan plan =
        buildInstrumentationPlan(p.cfg, p.pdag, overflowed);
    EXPECT_FALSE(plan.enabled);
    EXPECT_EQ(plan.totalPaths, 0u);
    // The edge table exists (empty actions) even when disabled, so
    // the dispatch pointers in FrameState are always valid.
    EXPECT_EQ(plan.flatEdgeActions.size(), p.cfg.graph.numEdges());
}

} // namespace
} // namespace pep::profile
