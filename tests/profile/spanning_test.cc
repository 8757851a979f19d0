/**
 * @file
 * Spanning-tree (event counting) placement tests. Core property: for
 * every Entry->Exit DAG path, the chord increments sum (mod 2^64) to
 * the path's Ball-Larus number — with increments on strictly fewer
 * edges than direct placement needs.
 */

#include <gtest/gtest.h>

#include <functional>

#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "profile/reconstruct.hh"
#include "profile/spanning_placement.hh"

namespace pep::profile {
namespace {

using bytecode::MethodCfg;

struct Prepared
{
    MethodCfg cfg;
    PDag pdag;
    Numbering numbering;
    SpanningPlacement placement;
};

DagEdgeFreqs
randomFreqs(const PDag &pdag, std::uint64_t seed)
{
    support::Rng rng(seed);
    DagEdgeFreqs freqs(pdag.dag.numBlocks());
    for (cfg::BlockId v = 0; v < pdag.dag.numBlocks(); ++v) {
        freqs[v].resize(pdag.dag.succs(v).size());
        for (double &f : freqs[v])
            f = static_cast<double>(rng.nextBounded(10'000));
    }
    return freqs;
}

Prepared
prepare(const bytecode::Program &program, DagMode mode,
        bool with_freqs, std::uint64_t seed = 11)
{
    Prepared p;
    p.cfg = bytecode::buildCfg(program.methods[program.mainMethod]);
    p.pdag = buildPDag(p.cfg, mode);
    p.numbering = numberPaths(p.pdag, NumberingScheme::BallLarus);
    if (with_freqs) {
        const DagEdgeFreqs freqs = randomFreqs(p.pdag, seed);
        p.placement =
            computeSpanningPlacement(p.pdag, p.numbering, &freqs);
    } else {
        p.placement =
            computeSpanningPlacement(p.pdag, p.numbering, nullptr);
    }
    return p;
}

/** Walk every Entry->Exit path; check chord sums reproduce numbers. */
void
expectChordSumsMatch(const Prepared &p)
{
    std::size_t paths_checked = 0;
    std::function<void(cfg::BlockId, std::uint64_t, std::uint64_t)>
        walk = [&](cfg::BlockId node, std::uint64_t val_sum,
                   std::uint64_t inc_sum) {
            if (node == p.pdag.dag.exit()) {
                EXPECT_EQ(inc_sum, val_sum);
                ++paths_checked;
                return;
            }
            const auto &succs = p.pdag.dag.succs(node);
            for (std::uint32_t i = 0; i < succs.size(); ++i) {
                walk(succs[i], val_sum + p.numbering.val[node][i],
                     inc_sum + p.placement.increment[node][i]);
            }
        };
    walk(p.pdag.dag.entry(), 0, 0);
    EXPECT_EQ(paths_checked, p.numbering.totalPaths);
}

TEST(Spanning, ChordSumsEqualPathNumbersFigure1)
{
    for (const DagMode mode :
         {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
        for (const bool with_freqs : {false, true}) {
            const Prepared p =
                prepare(test::figure1Program(), mode, with_freqs);
            expectChordSumsMatch(p);
        }
    }
}

TEST(Spanning, ChordSumsEqualPathNumbersRandomPrograms)
{
    int checked = 0;
    for (std::uint64_t seed = 500; seed < 540; ++seed) {
        const bytecode::Program program =
            test::randomStructuredProgram(seed, 8);
        for (const DagMode mode :
             {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
            const Prepared p = prepare(program, mode, true, seed);
            if (p.numbering.totalPaths > 2000)
                continue;
            ++checked;
            expectChordSumsMatch(p);
        }
    }
    EXPECT_GT(checked, 25);
}

TEST(Spanning, TreeEdgesCarryNoIncrement)
{
    const Prepared p =
        prepare(test::callSwitchProgram(), DagMode::HeaderSplit, true);
    for (cfg::BlockId v = 0; v < p.pdag.dag.numBlocks(); ++v) {
        for (std::uint32_t i = 0; i < p.pdag.dag.succs(v).size();
             ++i) {
            if (p.placement.inTree[v][i]) {
                EXPECT_EQ(p.placement.increment[v][i], 0u);
            }
        }
    }
}

TEST(Spanning, TreeIsSpanningOnReachableComponent)
{
    const Prepared p =
        prepare(test::callSwitchProgram(), DagMode::HeaderSplit, true);
    // Tree edge count == nodes - 1 - (virtual edge counts as one
    // union) for a connected DAG: nodes - 2 real tree edges.
    std::size_t tree_edges = 0;
    for (const auto &per_node : p.placement.inTree) {
        for (bool in : per_node)
            tree_edges += in ? 1 : 0;
    }
    EXPECT_EQ(tree_edges, p.pdag.dag.numBlocks() - 2);
    EXPECT_EQ(p.placement.numChords,
              p.pdag.dag.numEdges() - tree_edges);
}

TEST(Spanning, HotEdgesPreferredInTree)
{
    // A diamond: one arm 99x hotter. The hot arm must be in the tree
    // (uninstrumented); increments land on the cold chord side.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    irnd
    ifeq cold
    iinc 0 1
    goto join
cold:
    iinc 0 2
join:
    return
.end
.main main
)");
    Prepared p;
    p.cfg = bytecode::buildCfg(program.methods[0]);
    p.pdag = buildPDag(p.cfg, DagMode::HeaderSplit);
    p.numbering = numberPaths(p.pdag, NumberingScheme::BallLarus);

    // Flow-consistent frequencies: 990 executions take the hot arm
    // (branch successor 0), 10 the cold arm.
    const PathReconstructor reconstructor(p.cfg, p.pdag, p.numbering);
    std::vector<std::vector<std::uint64_t>> counts(
        p.cfg.graph.numBlocks());
    for (cfg::BlockId b = 0; b < p.cfg.graph.numBlocks(); ++b)
        counts[b].assign(p.cfg.graph.succs(b).size(), 0);
    ASSERT_EQ(p.numbering.totalPaths, 2u);
    for (std::uint64_t n = 0; n < 2; ++n) {
        const ReconstructedPath path = reconstructor.reconstruct(n);
        bool hot = false;
        for (const cfg::EdgeRef &e : path.cfgEdges) {
            if (p.cfg.terminator[e.src] ==
                    bytecode::TerminatorKind::Cond &&
                e.index == 0) {
                hot = true;
            }
        }
        for (const cfg::EdgeRef &e : path.cfgEdges)
            counts[e.src][e.index] += hot ? 990 : 10;
    }
    const DagEdgeFreqs freqs =
        estimateDagEdgeFrequencies(p.cfg, p.pdag, counts);
    p.placement = computeSpanningPlacement(p.pdag, p.numbering, &freqs);

    // Chord count: |E| - (|V| - 2) = 2 for this diamond (the virtual
    // EXIT->ENTRY edge adds one cycle). A maximal-cost tree minimizes
    // total chord frequency: one chord on the cold arm (10) and one
    // 990-weight chord breaking the hot cycle — never a 1000-weight
    // entry/exit edge.
    EXPECT_EQ(p.placement.numChords, 2u);
    double chord_weight = 0.0;
    bool cold_chord = false;
    for (cfg::BlockId v = 0; v < p.pdag.dag.numBlocks(); ++v) {
        for (std::uint32_t i = 0; i < p.pdag.dag.succs(v).size();
             ++i) {
            if (!p.placement.inTree[v][i]) {
                chord_weight += freqs[v][i];
                cold_chord = cold_chord || freqs[v][i] <= 10.0;
            }
        }
    }
    EXPECT_TRUE(cold_chord);
    EXPECT_NEAR(chord_weight, 1000.0, 0.1);
}

TEST(Spanning, ChordCountBoundedByCycleSpace)
{
    // The chord count is exactly |E| - (|V| - 2): the cycle-space
    // dimension of the DAG plus the virtual edge. It is usually (not
    // always — direct placement skips zero-valued edges) no larger
    // than direct placement's site count.
    int spanning_wins = 0;
    int comparisons = 0;
    for (std::uint64_t seed = 600; seed < 620; ++seed) {
        const bytecode::Program program =
            test::randomStructuredProgram(seed, 8);
        const MethodCfg cfg = bytecode::buildCfg(program.methods[0]);
        const PDag pdag = buildPDag(cfg, DagMode::HeaderSplit);
        const Numbering numbering =
            numberPaths(pdag, NumberingScheme::BallLarus);
        if (numbering.overflow)
            continue;
        const InstrumentationPlan direct =
            buildInstrumentationPlan(cfg, pdag, numbering);
        const SpanningPlacement spanning =
            computeSpanningPlacement(pdag, numbering, nullptr);
        ++comparisons;
        EXPECT_EQ(spanning.numChords,
                  pdag.dag.numEdges() - (pdag.dag.numBlocks() - 2));
        // Direct placement sites: nonzero edges + the per-header
        // dummy-edge end/restart pair.
        if (spanning.numChords <= direct.numInstrumentedEdges +
                                      2 * cfg.numLoopHeaders()) {
            ++spanning_wins;
        }
    }
    EXPECT_GT(comparisons, 10);
    EXPECT_GE(spanning_wins, comparisons * 4 / 5);
}

TEST(Spanning, ApplyRefreshesFlattenedTables)
{
    // applySpanningPlacement rewrites the one edge table the engines
    // execute: every edge carries its chord increment, not the direct
    // pass's value.
    const bytecode::Program program = test::figure1Program();
    const MethodCfg cfg = bytecode::buildCfg(program.methods[0]);
    const PDag pdag = buildPDag(cfg, DagMode::HeaderSplit);
    const Numbering numbering =
        numberPaths(pdag, NumberingScheme::BallLarus);
    InstrumentationPlan plan =
        buildInstrumentationPlan(cfg, pdag, numbering);
    const DagEdgeFreqs freqs = randomFreqs(pdag, 7);
    const SpanningPlacement spanning =
        computeSpanningPlacement(pdag, numbering, &freqs);
    applySpanningPlacement(cfg, pdag, spanning, plan);

    ASSERT_EQ(plan.flatEdgeActions.size(), cfg.graph.numEdges());
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        for (std::uint32_t i = 0; i < cfg.graph.succs(b).size();
             ++i) {
            const cfg::EdgeRef dag_edge = pdag.dagEdgeForCfgEdge[b][i];
            ASSERT_NE(dag_edge.src, cfg::kInvalidBlock);
            EXPECT_EQ(plan.flatAction(cfg, {b, i}).increment,
                      spanning.increment[dag_edge.src][dag_edge.index]);
        }
    }
}

TEST(Spanning, AppliedPlanReproducesNumbersAtRuntimeSemantics)
{
    // Replay the spanning plan's register semantics along every path
    // (the same simulation as instr_plan_test, but with chord
    // increments).
    for (const DagMode mode :
         {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
        const bytecode::Program program = test::figure1Program();
        const MethodCfg cfg = bytecode::buildCfg(program.methods[0]);
        const PDag pdag = buildPDag(cfg, mode);
        const Numbering numbering =
            numberPaths(pdag, NumberingScheme::BallLarus);
        InstrumentationPlan plan =
            buildInstrumentationPlan(cfg, pdag, numbering);
        const DagEdgeFreqs freqs = randomFreqs(pdag, 3);
        const SpanningPlacement spanning =
            computeSpanningPlacement(pdag, numbering, &freqs);
        applySpanningPlacement(cfg, pdag, spanning, plan);
        const PathReconstructor reconstructor(cfg, pdag, numbering);

        for (std::uint64_t n = 0; n < numbering.totalPaths; ++n) {
            const ReconstructedPath path = reconstructor.reconstruct(n);
            std::uint64_t reg = 0;
            if (path.startHeader != cfg::kInvalidBlock) {
                if (mode == DagMode::HeaderSplit) {
                    reg = plan.headerActions[path.startHeader].restart;
                } else {
                    for (const cfg::EdgeRef &back : cfg.backEdges) {
                        if (cfg.graph.edgeDst(back) ==
                            path.startHeader) {
                            reg = plan.flatAction(cfg, back).restart;
                            break;
                        }
                    }
                }
            }
            std::uint64_t result = 0;
            bool ended = false;
            for (std::size_t i = 0; i < path.cfgEdges.size(); ++i) {
                const cfg::EdgeRef e = path.cfgEdges[i];
                const EdgeAction &action = plan.flatAction(cfg, e);
                if (action.endsPath) {
                    result = reg + action.endAdd;
                    ended = true;
                    break;
                }
                reg += action.increment;
            }
            if (!ended) {
                if (path.endHeader != cfg::kInvalidBlock) {
                    result = reg +
                             plan.headerActions[path.endHeader].endAdd;
                } else {
                    result = reg;
                }
            }
            EXPECT_EQ(result, n) << "mode "
                                 << (mode == DagMode::HeaderSplit
                                         ? "split"
                                         : "trunc");
        }
    }
}

} // namespace
} // namespace pep::profile
