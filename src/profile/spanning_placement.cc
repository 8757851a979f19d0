#include "profile/spanning_placement.hh"

#include <algorithm>
#include <numeric>

#include "support/panic.hh"

namespace pep::profile {

namespace {

/** Union-find over DAG nodes. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    bool
    unite(std::size_t a, std::size_t b)
    {
        const std::size_t ra = find(a);
        const std::size_t rb = find(b);
        if (ra == rb)
            return false;
        parent_[ra] = rb;
        return true;
    }

  private:
    std::vector<std::size_t> parent_;
};

struct Candidate
{
    cfg::EdgeRef edge;
    double weight;
};

} // namespace

SpanningPlacement
computeSpanningPlacement(const PDag &pdag, const Numbering &numbering,
                         const DagEdgeFreqs *freqs)
{
    PEP_ASSERT_MSG(!numbering.overflow,
                   "spanning placement needs a valid numbering");
    const cfg::Graph &dag = pdag.dag;
    const std::size_t n = dag.numBlocks();

    SpanningPlacement placement;
    placement.increment.resize(n);
    placement.inTree.resize(n);
    for (cfg::BlockId v = 0; v < n; ++v) {
        placement.increment[v].assign(dag.succs(v).size(), 0);
        placement.inTree[v].assign(dag.succs(v).size(), false);
    }

    // Maximal-cost spanning tree (Kruskal). The virtual EXIT->ENTRY
    // edge is united first, forcing phi(Entry) == phi(Exit).
    UnionFind uf(n);
    uf.unite(dag.exit(), dag.entry());

    std::vector<Candidate> candidates;
    candidates.reserve(dag.numEdges());
    for (cfg::BlockId v = 0; v < n; ++v) {
        for (std::uint32_t i = 0; i < dag.succs(v).size(); ++i) {
            const double weight =
                freqs ? (*freqs)[v][i] : 1.0;
            candidates.push_back(Candidate{cfg::EdgeRef{v, i}, weight});
        }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         if (a.weight != b.weight)
                             return a.weight > b.weight;
                         return a.edge < b.edge;
                     });

    // Tree adjacency: (neighbor, edge, true if traversing along the
    // DAG direction).
    struct TreeLink
    {
        cfg::BlockId neighbor;
        cfg::EdgeRef edge;
        bool forward;
    };
    std::vector<std::vector<TreeLink>> tree(n);

    for (const Candidate &candidate : candidates) {
        const cfg::BlockId u = candidate.edge.src;
        const cfg::BlockId v = dag.edgeDst(candidate.edge);
        if (uf.unite(u, v)) {
            placement.inTree[u][candidate.edge.index] = true;
            tree[u].push_back(TreeLink{v, candidate.edge, true});
            tree[v].push_back(TreeLink{u, candidate.edge, false});
        }
    }

    // phi: signed (wrapping) sum of Val along the tree path from
    // Entry; the virtual edge makes phi(Exit) == phi(Entry) == 0.
    std::vector<std::uint64_t> phi(n, 0);
    std::vector<bool> visited(n, false);
    std::vector<cfg::BlockId> stack;
    auto seed = [&](cfg::BlockId root) {
        if (visited[root])
            return;
        visited[root] = true;
        phi[root] = 0;
        stack.push_back(root);
        while (!stack.empty()) {
            const cfg::BlockId node = stack.back();
            stack.pop_back();
            for (const TreeLink &link : tree[node]) {
                if (visited[link.neighbor])
                    continue;
                visited[link.neighbor] = true;
                const std::uint64_t val =
                    numbering.edgeValue(link.edge);
                phi[link.neighbor] =
                    link.forward ? phi[node] + val : phi[node] - val;
                stack.push_back(link.neighbor);
            }
        }
    };
    seed(dag.entry());
    seed(dag.exit()); // same component via the virtual edge; phi = 0
    for (cfg::BlockId v = 0; v < n; ++v)
        seed(v); // isolated (dead) components; phi = 0 locally

    // Chord increments: Inc(u->v) = phi(u) + Val - phi(v); zero on
    // tree edges by construction of phi.
    for (cfg::BlockId u = 0; u < n; ++u) {
        for (std::uint32_t i = 0; i < dag.succs(u).size(); ++i) {
            if (placement.inTree[u][i])
                continue;
            ++placement.numChords;
            const cfg::BlockId v = dag.succs(u)[i];
            const std::uint64_t inc =
                phi[u] + numbering.val[u][i] - phi[v];
            placement.increment[u][i] = inc;
            if (inc != 0)
                ++placement.numInstrumentedEdges;
        }
    }
    return placement;
}

void
applySpanningPlacement(const bytecode::MethodCfg &method_cfg,
                       const PDag &pdag,
                       const SpanningPlacement &placement,
                       InstrumentationPlan &plan)
{
    PEP_ASSERT(plan.enabled);
    const cfg::Graph &graph = method_cfg.graph;

    auto inc_of = [&](cfg::EdgeRef dag_edge) {
        return placement.increment[dag_edge.src][dag_edge.index];
    };

    plan.numInstrumentedEdges = 0;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        for (std::uint32_t i = 0; i < graph.succs(b).size(); ++i) {
            const cfg::EdgeRef dag_edge = pdag.dagEdgeForCfgEdge[b][i];
            if (dag_edge.src == cfg::kInvalidBlock)
                continue; // truncated back edge: handled below
            EdgeAction &action =
                plan.flatEdgeActions[plan.flatEdgeId({b, i})];
            action.increment = inc_of(dag_edge);
            if (action.increment != 0)
                ++plan.numInstrumentedEdges;
        }
    }

    if (pdag.mode == DagMode::HeaderSplit) {
        for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
            if (!method_cfg.isLoopHeader[b])
                continue;
            HeaderAction &action = plan.headerActions[b];
            action.endAdd = inc_of(pdag.headerDummyExit[b]);
            action.restart = inc_of(pdag.headerDummyEntry[b]);
        }
    } else {
        for (std::size_t k = 0; k < method_cfg.backEdges.size(); ++k) {
            const cfg::EdgeRef back = method_cfg.backEdges[k];
            EdgeAction &action =
                plan.flatEdgeActions[plan.flatEdgeId(back)];
            action.endAdd = inc_of(pdag.backEdgeDummyExit[k]);
            const cfg::BlockId header = graph.edgeDst(back);
            action.restart = inc_of(pdag.headerDummyEntry[header]);
        }
    }
}

} // namespace pep::profile
