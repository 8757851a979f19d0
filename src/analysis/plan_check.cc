#include "analysis/plan_check.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>

#include "support/panic.hh"
#include "vm/inliner.hh"

namespace pep::analysis {

namespace {

using profile::DagEdgeKind;
using profile::DagMode;
using profile::InstrumentationPlan;
using profile::KPathScheme;
using profile::Numbering;
using profile::PDag;
using profile::PlacementKind;

/** Caps repeated same-kind findings so a broken method stays readable. */
constexpr std::size_t kMaxPerCategory = 8;

class Checker
{
  public:
    Checker(const bytecode::MethodCfg &cfg,
            const profile::PlanState &state,
            const std::string &method_name,
            const profile::MethodEdgeProfile *freq_profile,
            DiagnosticList &diagnostics)
        : cfg_(cfg), state_(state), name_(method_name),
          freqProfile_(freq_profile), diags_(diagnostics),
          dag_(state.pdag.dag)
    {
    }

    bool
    run()
    {
        const std::size_t before = diags_.errorCount();
        if (!checkStructure())
            return diags_.errorCount() == before;

        if (state_.numbering.overflow) {
            note("numbering overflowed (more than 2^50 paths); "
                 "instrumentation disabled");
            if (state_.plan.enabled) {
                error("plan is enabled despite numbering overflow");
            }
            checkFlattenedTables();
            return diags_.errorCount() == before;
        }

        checkNumberingIntervals();
        checkRegisterBounds();
        // Checks 4 and 7 index the edge table by flat edge id.
        const bool table_ok = checkFlattenedTables();
        if (table_ok)
            checkPlanConsistency();
        if (state_.placement == PlacementKind::SpanningTree)
            checkChordOnly();
        if (state_.scheme == profile::NumberingScheme::Smart)
            checkHotEdgesFree();
        if (table_ok)
            checkSemantics();
        return diags_.errorCount() == before;
    }

  private:
    // ---- reporting helpers -------------------------------------------

    void
    error(const std::string &message)
    {
        diags_.report(Severity::Error, "plan-check", name_,
                      message);
    }

    void
    errorAtEdge(cfg::EdgeRef edge, const std::string &message)
    {
        diags_.reportAtEdge(Severity::Error, "plan-check",
                            name_, edge, message);
    }

    void
    note(const std::string &message)
    {
        diags_.report(Severity::Note, "plan-check", name_,
                      message);
    }

    /** Report unless the category already hit its cap. */
    bool
    capped(std::size_t &counter)
    {
        if (counter == kMaxPerCategory)
            note("further findings of this kind suppressed");
        return counter++ >= kMaxPerCategory;
    }

    // ---- check 1: DAG well-formedness --------------------------------

    bool
    checkStructure()
    {
        const std::string problem = dag_.validate();
        if (!problem.empty()) {
            error("P-DAG is structurally invalid: " + problem);
            return false;
        }

        // Kahn's algorithm; leftover nodes mean a cycle.
        const std::size_t n = dag_.numBlocks();
        std::vector<std::size_t> indegree(n, 0);
        for (cfg::BlockId v = 0; v < n; ++v)
            for (const cfg::BlockId s : dag_.succs(v))
                ++indegree[s];
        std::vector<cfg::BlockId> ready;
        for (cfg::BlockId v = 0; v < n; ++v)
            if (indegree[v] == 0)
                ready.push_back(v);
        topo_.clear();
        while (!ready.empty()) {
            const cfg::BlockId v = ready.back();
            ready.pop_back();
            topo_.push_back(v);
            for (const cfg::BlockId s : dag_.succs(v))
                if (--indegree[s] == 0)
                    ready.push_back(s);
        }
        if (topo_.size() != n) {
            error("P-DAG contains a cycle: path numbering is unsound");
            return false;
        }
        return true;
    }

    // ---- check 2: interval tiling => unique + dense ids --------------

    void
    checkNumberingIntervals()
    {
        const Numbering &numbering = state_.numbering;
        if (numbering.numPaths.size() != dag_.numBlocks()) {
            error("numbering numPaths has wrong arity");
            return;
        }
        if (numbering.numPaths[dag_.exit()] != 1) {
            error("numPaths(Exit) != 1");
        }
        if (numbering.totalPaths !=
            numbering.numPaths[dag_.entry()]) {
            error("totalPaths does not equal numPaths(Entry)");
        }

        std::size_t overlaps = 0, gaps = 0;
        for (cfg::BlockId v = 0; v < dag_.numBlocks(); ++v) {
            const std::uint64_t total = numbering.numPaths[v];
            if (dag_.succs(v).empty() || total == 0)
                continue;

            struct Interval
            {
                std::uint64_t start;
                std::uint64_t span;
                std::uint32_t index;
            };
            std::vector<Interval> intervals;
            for (std::uint32_t i = 0; i < dag_.succs(v).size(); ++i) {
                const std::uint64_t span =
                    numbering.numPaths[dag_.succs(v)[i]];
                if (span == 0)
                    continue; // dead successor contributes no paths
                intervals.push_back(
                    Interval{numbering.val[v][i], span, i});
            }
            std::sort(intervals.begin(), intervals.end(),
                      [](const Interval &a, const Interval &b) {
                          if (a.start != b.start)
                              return a.start < b.start;
                          return a.index < b.index;
                      });

            std::uint64_t cursor = 0;
            for (const Interval &iv : intervals) {
                if (iv.start < cursor) {
                    if (!capped(overlaps)) {
                        std::ostringstream os;
                        os << "duplicate path ids: interval ["
                           << iv.start << ", " << iv.start + iv.span
                           << ") of edge " << iv.index
                           << " overlaps its sibling at node " << v;
                        errorAtEdge(cfg::EdgeRef{v, iv.index},
                                    os.str());
                    }
                    cursor = std::max(cursor, iv.start + iv.span);
                    continue;
                }
                if (iv.start > cursor && !capped(gaps)) {
                    std::ostringstream os;
                    os << "path-id gap: ids [" << cursor << ", "
                       << iv.start << ") at node " << v
                       << " are never assigned (numbering not dense)";
                    errorAtEdge(cfg::EdgeRef{v, iv.index}, os.str());
                }
                cursor = iv.start + iv.span;
            }
            if (cursor != total && !capped(gaps)) {
                std::ostringstream os;
                os << "node " << v << ": outgoing intervals cover "
                   << cursor << " ids but numPaths is " << total;
                error(os.str());
            }
        }
    }

    // ---- check 3: u64 overflow safety --------------------------------

    void
    checkRegisterBounds()
    {
        const Numbering &numbering = state_.numbering;
        if (numbering.totalPaths > profile::kMaxPaths) {
            error("totalPaths exceeds kMaxPaths without overflow flag");
            return;
        }
        if (numbering.totalPaths == 0)
            return;

        // Longest-sum DP over the (already verified acyclic) DAG: the
        // largest value the register can reach mid-path under Direct
        // placement. A sound numbering keeps every partial sum at most
        // totalPaths - 1, far below u64 wrap.
        const std::uint64_t unreachable =
            static_cast<std::uint64_t>(-1);
        std::vector<std::uint64_t> max_reg(dag_.numBlocks(),
                                           unreachable);
        max_reg[dag_.entry()] = 0;
        std::size_t reported = 0;
        for (const cfg::BlockId v : topo_) {
            if (max_reg[v] == unreachable)
                continue;
            for (std::uint32_t i = 0; i < dag_.succs(v).size(); ++i) {
                const std::uint64_t val = numbering.val[v][i];
                const std::uint64_t sum = max_reg[v] + val;
                if (sum < max_reg[v] ||
                    sum >= numbering.totalPaths) {
                    if (!capped(reported)) {
                        std::ostringstream os;
                        os << "path register can reach " << sum
                           << " >= totalPaths ("
                           << numbering.totalPaths
                           << "); u64 overflow safety not provable";
                        errorAtEdge(cfg::EdgeRef{v, i}, os.str());
                    }
                    continue;
                }
                const cfg::BlockId dst = dag_.succs(v)[i];
                if (max_reg[dst] == unreachable ||
                    sum > max_reg[dst]) {
                    max_reg[dst] = sum;
                }
            }
        }
    }

    // ---- check 4: plan actions match the numbering/placement ---------

    /** The increment the plan should carry for a DAG edge. */
    std::uint64_t
    expectedValue(cfg::EdgeRef dag_edge) const
    {
        if (state_.placement == PlacementKind::SpanningTree)
            return state_.spanning.increment[dag_edge.src][dag_edge.index];
        return state_.numbering.edgeValue(dag_edge);
    }

    void
    checkPlanConsistency()
    {
        const InstrumentationPlan &plan = state_.plan;
        const PDag &pdag = state_.pdag;
        const bytecode::MethodCfg &cfg = cfg_;
        const cfg::Graph &graph = cfg.graph;

        if (!plan.enabled) {
            error("plan disabled despite valid numbering");
            return;
        }
        if (plan.totalPaths != state_.numbering.totalPaths)
            error("plan totalPaths disagrees with numbering");
        if (plan.mode != pdag.mode)
            error("plan mode disagrees with P-DAG mode");
        if (plan.headerActions.size() != graph.numBlocks()) {
            error("plan action tables have wrong arity");
            return;
        }

        // Truncated back edges, for BackEdgeTruncate lookups.
        auto back_index = [&](cfg::EdgeRef e) -> std::size_t {
            for (std::size_t k = 0; k < cfg.backEdges.size(); ++k)
                if (cfg.backEdges[k] == e)
                    return k;
            return cfg.backEdges.size();
        };

        std::size_t mismatches = 0;
        std::size_t instrumented = 0;
        for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
            for (std::uint32_t i = 0; i < graph.succs(b).size(); ++i) {
                const cfg::EdgeRef cfg_edge{b, i};
                const profile::EdgeAction &action =
                    plan.flatAction(cfg, cfg_edge);
                const cfg::EdgeRef dag_edge =
                    pdag.dagEdgeForCfgEdge[b][i];

                if (dag_edge.src == cfg::kInvalidBlock) {
                    // Truncated back edge (BackEdgeTruncate mode).
                    checkTruncatedBackEdge(cfg_edge, action,
                                           back_index(cfg_edge),
                                           mismatches);
                    continue;
                }
                if (action.endsPath && !capped(mismatches)) {
                    errorAtEdge(cfg_edge,
                                "path-ending action on a "
                                "non-truncated edge");
                }
                const std::uint64_t expected =
                    expectedValue(dag_edge);
                if (action.increment != expected &&
                    !capped(mismatches)) {
                    std::ostringstream os;
                    os << "edge increment " << action.increment
                       << " does not match expected " << expected;
                    errorAtEdge(cfg_edge, os.str());
                }
                if (action.increment != 0)
                    ++instrumented;
            }
        }
        if (instrumented != plan.numInstrumentedEdges) {
            std::ostringstream os;
            os << "numInstrumentedEdges is "
               << plan.numInstrumentedEdges << " but " << instrumented
               << " edges carry increments";
            error(os.str());
        }

        checkHeaderActions(mismatches);
    }

    void
    checkTruncatedBackEdge(cfg::EdgeRef cfg_edge,
                           const profile::EdgeAction &action,
                           std::size_t k, std::size_t &mismatches)
    {
        const PDag &pdag = state_.pdag;
        if (pdag.mode != DagMode::BackEdgeTruncate) {
            errorAtEdge(cfg_edge,
                        "CFG edge missing from the P-DAG outside "
                        "BackEdgeTruncate mode");
            return;
        }
        if (k == cfg_.backEdges.size()) {
            errorAtEdge(cfg_edge,
                        "truncated edge is not a known back edge");
            return;
        }
        if (!action.endsPath) {
            errorAtEdge(cfg_edge,
                        "truncated back edge does not end the path");
            return;
        }
        const cfg::BlockId header = cfg_.graph.edgeDst(cfg_edge);
        const std::uint64_t want_end =
            expectedValue(pdag.backEdgeDummyExit[k]);
        const std::uint64_t want_restart =
            expectedValue(pdag.headerDummyEntry[header]);
        if ((action.endAdd != want_end ||
             action.restart != want_restart) &&
            !capped(mismatches)) {
            std::ostringstream os;
            os << "back-edge end/restart (" << action.endAdd << ", "
               << action.restart << ") should be (" << want_end
               << ", " << want_restart << ")";
            errorAtEdge(cfg_edge, os.str());
        }
    }

    void
    checkHeaderActions(std::size_t &mismatches)
    {
        const InstrumentationPlan &plan = state_.plan;
        const PDag &pdag = state_.pdag;
        const bytecode::MethodCfg &cfg = cfg_;

        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            const profile::HeaderAction &action =
                plan.headerActions[b];
            const bool is_split_header =
                pdag.mode == DagMode::HeaderSplit &&
                cfg.isLoopHeader[b];
            if (action.endsPath != is_split_header) {
                if (capped(mismatches))
                    continue;
                std::ostringstream os;
                os << "block " << b
                   << (is_split_header
                           ? ": loop header lacks its end/restart pair"
                           : ": end/restart pair on a non-header");
                error(os.str());
                continue;
            }
            if (!is_split_header)
                continue;
            const std::uint64_t want_end =
                expectedValue(pdag.headerDummyExit[b]);
            const std::uint64_t want_restart =
                expectedValue(pdag.headerDummyEntry[b]);
            if ((action.endAdd != want_end ||
                 action.restart != want_restart) &&
                !capped(mismatches)) {
                std::ostringstream os;
                os << "header " << b << " end/restart ("
                   << action.endAdd << ", " << action.restart
                   << ") should be (" << want_end << ", "
                   << want_restart << ")";
                error(os.str());
            }
        }
    }

    // ---- check 8: the flat edge table's size -----------------------

    /**
     * Engines index flatEdgeActions by the CFG's flat edge id, and so
     * do checks 4 and 7: prove the table has one action per edge.
     * Returns false when it does not.
     */
    bool
    checkFlattenedTables()
    {
        const std::size_t edges = cfg_.edgeBase.back();
        if (state_.plan.flatEdgeActions.size() != edges) {
            std::ostringstream os;
            os << "flattened table covers "
               << state_.plan.flatEdgeActions.size()
               << " edges but the CFG has " << edges;
            error(os.str());
            return false;
        }
        return true;
    }

    // ---- check 5: chord-only placement --------------------------------

    void
    checkChordOnly()
    {
        const profile::SpanningPlacement &spanning = state_.spanning;
        const std::size_t n = dag_.numBlocks();
        if (spanning.inTree.size() != n ||
            spanning.increment.size() != n) {
            error("spanning placement has wrong arity");
            return;
        }

        // Tree edges must be increment-free ("chords only").
        std::size_t on_tree = 0;
        for (cfg::BlockId v = 0; v < n; ++v) {
            for (std::uint32_t i = 0; i < dag_.succs(v).size(); ++i) {
                if (spanning.inTree[v][i] &&
                    spanning.increment[v][i] != 0 &&
                    !capped(on_tree)) {
                    errorAtEdge(
                        cfg::EdgeRef{v, i},
                        "increment placed on a spanning-tree edge");
                }
            }
        }

        // The tree (plus the virtual Exit->Entry edge) must be acyclic
        // and must connect every node the DAG can route flow through.
        std::vector<std::size_t> parent(n);
        std::iota(parent.begin(), parent.end(), std::size_t{0});
        std::function<std::size_t(std::size_t)> find =
            [&](std::size_t x) {
                while (parent[x] != x) {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                return x;
            };
        auto unite = [&](std::size_t a, std::size_t b) {
            const std::size_t ra = find(a), rb = find(b);
            if (ra == rb)
                return false;
            parent[ra] = rb;
            return true;
        };
        unite(dag_.exit(), dag_.entry());
        for (cfg::BlockId v = 0; v < n; ++v) {
            for (std::uint32_t i = 0; i < dag_.succs(v).size(); ++i) {
                if (!spanning.inTree[v][i])
                    continue;
                if (!unite(v, dag_.succs(v)[i])) {
                    errorAtEdge(cfg::EdgeRef{v, i},
                                "spanning tree contains a cycle");
                }
            }
        }
        const cfg::DfsResult dfs = cfg::depthFirstSearch(dag_);
        for (cfg::BlockId v = 0; v < n; ++v) {
            if (dfs.reachable[v] &&
                find(v) != find(dag_.entry())) {
                std::ostringstream os;
                os << "spanning tree does not span node " << v;
                error(os.str());
            }
        }
    }

    // ---- check 6: smart numbering leaves hot edges free ---------------

    void
    checkHotEdgesFree()
    {
        const profile::DagEdgeFreqs freqs =
            profile::dagEdgeFrequencies(cfg_, state_.pdag, freqProfile_);
        std::size_t hot = 0;
        for (cfg::BlockId v = 0; v < dag_.numBlocks(); ++v) {
            if (dag_.succs(v).empty() ||
                state_.numbering.numPaths[v] == 0) {
                continue;
            }
            std::uint32_t hottest = 0;
            for (std::uint32_t i = 1; i < dag_.succs(v).size(); ++i) {
                if (freqs[v][i] > freqs[v][hottest])
                    hottest = i;
            }
            if (state_.numbering.val[v][hottest] != 0 &&
                !capped(hot)) {
                std::ostringstream os;
                os << "smart numbering left value "
                   << state_.numbering.val[v][hottest]
                   << " on the hottest outgoing edge of node " << v;
                errorAtEdge(cfg::EdgeRef{v, hottest}, os.str());
            }
        }
    }

    // ---- check 7: bounded exhaustive semantic proof -------------------

    /** True path count, saturated just above the enumeration budget. */
    std::uint64_t
    truePathCount() const
    {
        const std::uint64_t cap = kSimulateLimit + 1;
        std::vector<std::uint64_t> count(dag_.numBlocks(), 0);
        count[dag_.exit()] = 1;
        for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
            const cfg::BlockId v = *it;
            if (v == dag_.exit())
                continue;
            std::uint64_t sum = 0;
            for (const cfg::BlockId s : dag_.succs(v))
                sum = std::min(cap, sum + count[s]);
            count[v] = sum;
        }
        return count[dag_.entry()];
    }

    /** Replay the plan's register actions over one DAG path. */
    bool
    replayPlan(const std::vector<cfg::EdgeRef> &path,
               std::uint64_t &result)
    {
        const PDag &pdag = state_.pdag;
        const InstrumentationPlan &plan = state_.plan;
        std::uint64_t reg = 0;

        for (std::size_t i = 0; i < path.size(); ++i) {
            const cfg::EdgeRef e = path[i];
            const profile::DagEdgeMeta &meta = pdag.meta(e);
            switch (meta.kind) {
              case DagEdgeKind::DummyEntry: {
                if (i != 0) {
                    errorAtEdge(e, "DummyEntry edge mid-path");
                    return false;
                }
                const cfg::BlockId header =
                    pdag.cfgBlock[dag_.edgeDst(e)];
                if (pdag.mode == DagMode::HeaderSplit) {
                    reg = plan.headerActions[header].restart;
                } else {
                    // Restart lives on the back edges ending at this
                    // header; all of them share the value.
                    bool found = false;
                    for (const cfg::EdgeRef &back :
                         cfg_.backEdges) {
                        if (cfg_.graph.edgeDst(back) == header) {
                            reg = plan.flatAction(cfg_, back).restart;
                            found = true;
                            break;
                        }
                    }
                    if (!found) {
                        errorAtEdge(
                            e, "DummyEntry header has no back edge");
                        return false;
                    }
                }
                break;
              }
              case DagEdgeKind::DummyExit: {
                if (i + 1 != path.size()) {
                    errorAtEdge(e, "DummyExit edge mid-path");
                    return false;
                }
                if (pdag.mode == DagMode::HeaderSplit) {
                    const cfg::BlockId header =
                        pdag.cfgBlock[e.src];
                    result =
                        reg + plan.headerActions[header].endAdd;
                } else {
                    std::size_t k = cfg_.backEdges.size();
                    for (std::size_t j = 0;
                         j < pdag.backEdgeDummyExit.size(); ++j) {
                        if (pdag.backEdgeDummyExit[j] == e) {
                            k = j;
                            break;
                        }
                    }
                    if (k == cfg_.backEdges.size()) {
                        errorAtEdge(e,
                                    "DummyExit edge matches no "
                                    "back edge");
                        return false;
                    }
                    const cfg::EdgeRef back = cfg_.backEdges[k];
                    result = reg + plan.flatAction(cfg_, back).endAdd;
                }
                return true;
              }
              case DagEdgeKind::Real: {
                const cfg::EdgeRef ce = meta.cfgEdge;
                reg += plan.flatAction(cfg_, ce).increment;
                break;
              }
            }
        }
        result = reg; // ended at method exit via real edges
        return true;
    }

    void
    checkSemantics()
    {
        const Numbering &numbering = state_.numbering;
        const std::uint64_t true_paths = truePathCount();
        if (true_paths > kSimulateLimit) {
            std::ostringstream os;
            os << "semantic enumeration skipped (" << true_paths
               << "+ paths exceed the budget of "
               << kSimulateLimit << ")";
            note(os.str());
            return;
        }
        if (true_paths != numbering.totalPaths) {
            std::ostringstream os;
            os << "DAG has " << true_paths
               << " Entry->Exit paths but numbering claims "
               << numbering.totalPaths;
            error(os.str());
        }

        // Iterative DFS enumerating every Entry->Exit edge sequence.
        std::vector<std::uint64_t> seen_ids;
        std::vector<cfg::EdgeRef> path;
        std::vector<std::uint32_t> cursor{0};
        std::vector<cfg::BlockId> nodes{dag_.entry()};
        std::size_t divergences = 0;

        while (!cursor.empty()) {
            const cfg::BlockId v = nodes.back();
            if (v == dag_.exit() || cursor.back() >=
                                        dag_.succs(v).size()) {
                if (v == dag_.exit()) {
                    std::uint64_t bl = 0;
                    for (const cfg::EdgeRef &e : path)
                        bl += numbering.edgeValue(e);
                    seen_ids.push_back(bl);
                    std::uint64_t replayed = 0;
                    if (replayPlan(path, replayed) &&
                        replayed != bl && !capped(divergences)) {
                        std::ostringstream os;
                        os << "plan register replay yields "
                           << replayed
                           << " but the path's Ball-Larus number is "
                           << bl;
                        error(os.str());
                    }
                }
                cursor.pop_back();
                nodes.pop_back();
                if (!path.empty())
                    path.pop_back();
                if (!cursor.empty())
                    ++cursor.back();
                continue;
            }
            const std::uint32_t i = cursor.back();
            path.push_back(cfg::EdgeRef{v, i});
            nodes.push_back(dag_.succs(v)[i]);
            cursor.push_back(0);
        }

        std::sort(seen_ids.begin(), seen_ids.end());
        std::size_t bad_ids = 0;
        for (std::size_t i = 0; i < seen_ids.size(); ++i) {
            if (seen_ids[i] == i)
                continue;
            if (capped(bad_ids))
                break;
            std::ostringstream os;
            if (i > 0 && seen_ids[i] == seen_ids[i - 1]) {
                os << "duplicate path id " << seen_ids[i];
            } else {
                os << "path ids are not dense: slot " << i
                   << " holds id " << seen_ids[i];
            }
            error(os.str());
        }
    }

    const bytecode::MethodCfg &cfg_;
    const profile::PlanState &state_;
    const std::string &name_;
    const profile::MethodEdgeProfile *freqProfile_;
    DiagnosticList &diags_;
    const cfg::Graph &dag_;
    std::vector<cfg::BlockId> topo_;
};

} // namespace

bool
checkInstrumentationPlan(const bytecode::MethodCfg &cfg,
                         const profile::PlanState &state,
                         const std::string &method_name,
                         DiagnosticList &diagnostics,
                         const profile::MethodEdgeProfile *freq_profile)
{
    Checker checker(cfg, state, method_name, freq_profile, diagnostics);
    return checker.run();
}

bool
checkKPathScheme(const KPathCheckInput &in, DiagnosticList &diagnostics)
{
    PEP_ASSERT(in.plan && in.kpath);
    const std::size_t before = diagnostics.errorCount();
    const auto error = [&](const std::string &message) {
        diagnostics.report(Severity::Error, "plan-check",
                           in.methodName, message);
    };

    const InstrumentationPlan &plan = *in.plan;
    const KPathScheme &kpath = *in.kpath;
    const std::uint64_t want_base = plan.enabled ? plan.totalPaths : 0;
    const std::uint32_t k_requested =
        in.kRequested == 0 ? 1 : in.kRequested;

    // 10a. The scheme is layered over exactly this plan: base ==
    // totalPaths (0 for a disabled plan), and the requested k is the
    // profiler's.
    if (kpath.base() != want_base) {
        std::ostringstream os;
        os << "k-path scheme base " << kpath.base()
           << " disagrees with the plan's totalPaths " << want_base;
        error(os.str());
        return false;
    }
    if (kpath.kRequested() != k_requested) {
        std::ostringstream os;
        os << "k-path scheme was built for k=" << kpath.kRequested()
           << " but the profiler requested k=" << k_requested;
        error(os.str());
        return false;
    }

    // 10b. Offsets are exact prefix sums of base^l with no wrap, and
    // the whole id space sits under the cap.
    const std::vector<std::uint64_t> &offsets = kpath.offsets();
    if (offsets.size() != kpath.kEffective() + 1 || offsets[0] != 0) {
        error("k-path offsets table has the wrong shape");
        return false;
    }
    std::uint64_t power = 1;
    for (std::uint32_t l = 1; l < offsets.size(); ++l) {
        power *= kpath.base();
        if (offsets[l] != offsets[l - 1] + power) {
            std::ostringstream os;
            os << "k-path offset for length " << l << " is "
               << offsets[l] << ", want " << offsets[l - 1] + power;
            error(os.str());
            return false;
        }
    }
    if (kpath.maxId() > profile::kKPathIdCap) {
        std::ostringstream os;
        os << "k-path id space " << kpath.maxId()
           << " exceeds the id cap " << profile::kKPathIdCap;
        error(os.str());
    }

    // 10c. kEffective is in range and *maximal*: shrinking the window
    // below the requested k is legal only when one more length would
    // blow the id cap. A scheme quietly built for a smaller k would
    // pass every arithmetic check yet profile shorter windows than
    // configured — this is the check that catches it.
    if (kpath.kEffective() < 1 || kpath.kEffective() > k_requested) {
        std::ostringstream os;
        os << "kEffective " << kpath.kEffective()
           << " outside [1, " << k_requested << "]";
        error(os.str());
        return false;
    }
    if (kpath.kEffective() !=
        profile::kEffectiveFor(kpath.base(), k_requested)) {
        std::ostringstream os;
        os << "kEffective " << kpath.kEffective()
           << " is not the maximal window length for base "
           << kpath.base() << " and k=" << k_requested << " (want "
           << profile::kEffectiveFor(kpath.base(), k_requested) << ")";
        error(os.str());
    }

    // 10d. k=1 degeneracy: length-1 ids coincide with the raw
    // Ball-Larus numbers, and encode/decode round-trip at the id-space
    // corners (all-zero digits — the Smart-numbering all-hot window —
    // and all base-1 digits).
    if (plan.enabled && kpath.base() > 0) {
        const std::uint64_t probe = kpath.base() - 1;
        if (kpath.encode(&probe, 1) != probe) {
            error("length-1 k-path ids do not equal raw Ball-Larus "
                  "numbers — the k=1 degeneracy guarantee is broken");
        }
        for (std::uint32_t l = 1; l <= kpath.kEffective(); ++l) {
            const std::vector<std::uint64_t> zeros(l, 0);
            const std::vector<std::uint64_t> tops(l, probe);
            for (const auto &digits : {zeros, tops}) {
                const std::uint64_t id = kpath.encode(digits);
                if (id >= kpath.maxId() || kpath.decode(id) != digits) {
                    std::ostringstream os;
                    os << "k-path encode/decode round-trip fails at a "
                          "length-"
                       << l << " id-space corner";
                    error(os.str());
                    break;
                }
            }
        }
    }

    return diagnostics.errorCount() == before;
}

// ---- check 11: cloned-body origin audit -------------------------------

bool
checkClonedBody(const CloneCheckInput &in, DiagnosticList &diagnostics)
{
    PEP_ASSERT(in.originalCfg && in.body);
    const std::size_t before = diagnostics.errorCount();
    const auto error = [&](const std::string &message) {
        diagnostics.report(Severity::Error, "plan-check",
                           in.methodName, message);
    };

    const bytecode::MethodCfg &original = *in.originalCfg;
    const bytecode::MethodCfg &cloned = in.body->info.cfg;
    const cfg::Graph &graph = cloned.graph;

    if (in.body->blockOrigin.size() != graph.numBlocks()) {
        error("cloned body's blockOrigin table does not cover its CFG");
        return false;
    }

    // 11a. OSR contract: the original code region is unmoved, so the
    // rootPcMap must be the identity over it.
    const std::size_t original_size = original.blockOfPc.size();
    if (in.body->rootPcMap.size() != original_size) {
        std::ostringstream os;
        os << "cloned body's rootPcMap covers "
           << in.body->rootPcMap.size() << " pcs, the original method "
           << original_size;
        error(os.str());
    } else {
        for (bytecode::Pc pc = 0; pc < original_size; ++pc) {
            if (in.body->rootPcMap[pc] != pc) {
                std::ostringstream os;
                os << "cloned body's rootPcMap[" << pc << "] is "
                   << in.body->rootPcMap[pc]
                   << "; clones keep original code in place, so the "
                      "map must be the identity";
                error(os.str());
                break;
            }
        }
    }

    // 11b. Origin records: every Cond/Switch block needs one (that is
    // where profile folding and layout sharing happen); only
    // synthesized glue Gotos may go without. Valid origins must name a
    // code block of this method with the same terminator kind and —
    // for branches — the same successor arity, or per-index counter
    // sharing would mix edges of different branches.
    std::size_t findings = 0;
    for (cfg::BlockId b = 2; b < graph.numBlocks(); ++b) {
        if (!cloned.isCodeBlock(b))
            continue;
        if (findings >= kMaxPerCategory)
            break;
        const bytecode::TerminatorKind kind = cloned.terminator[b];
        const vm::BlockOrigin &origin = in.body->blockOrigin[b];
        if (!origin.valid()) {
            if (kind == bytecode::TerminatorKind::Cond ||
                kind == bytecode::TerminatorKind::Switch) {
                std::ostringstream os;
                os << "cloned block " << b
                   << " branches but has no BlockOrigin — its "
                      "taken/not-taken counters have nowhere to fold";
                error(os.str());
                ++findings;
            }
            continue;
        }
        if (origin.method != in.rootMethod) {
            std::ostringstream os;
            os << "cloned block " << b << " claims origin method "
               << origin.method << " but clones never splice other "
               << "methods (root is " << in.rootMethod << ")";
            error(os.str());
            ++findings;
            continue;
        }
        if (origin.block >= original.graph.numBlocks() ||
            !original.isCodeBlock(origin.block)) {
            std::ostringstream os;
            os << "cloned block " << b
               << " names nonexistent origin block " << origin.block;
            error(os.str());
            ++findings;
            continue;
        }
        if (kind == bytecode::TerminatorKind::Cond ||
            kind == bytecode::TerminatorKind::Switch ||
            kind == bytecode::TerminatorKind::Goto ||
            kind == bytecode::TerminatorKind::Return) {
            if (original.terminator[origin.block] != kind) {
                std::ostringstream os;
                os << "cloned block " << b << " (terminator kind "
                   << static_cast<int>(kind)
                   << ") folds onto original block " << origin.block
                   << " of kind "
                   << static_cast<int>(
                          original.terminator[origin.block]);
                error(os.str());
                ++findings;
                continue;
            }
        }
        if ((kind == bytecode::TerminatorKind::Cond ||
             kind == bytecode::TerminatorKind::Switch) &&
            graph.succs(b).size() !=
                original.graph.succs(origin.block).size()) {
            std::ostringstream os;
            os << "cloned block " << b << " has "
               << graph.succs(b).size()
               << " successors but its origin block " << origin.block
               << " has " << original.graph.succs(origin.block).size()
               << " — per-index counter sharing is ill-defined";
            error(os.str());
            ++findings;
        }
    }

    return diagnostics.errorCount() == before;
}

} // namespace pep::analysis
