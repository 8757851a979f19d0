#include "bytecode/cfg_builder.hh"

#include <algorithm>

#include "support/panic.hh"

namespace pep::bytecode {

std::size_t
MethodCfg::numLoopHeaders() const
{
    return static_cast<std::size_t>(
        std::count(isLoopHeader.begin(), isLoopHeader.end(), true));
}

MethodCfg
buildCfg(const Method &method)
{
    const auto &code = method.code;
    PEP_ASSERT_MSG(!code.empty(), "method " << method.name << " is empty");

    const std::size_t n = code.size();

    // Pass 1: find leaders.
    std::vector<bool> leader(n, false);
    leader[0] = true;
    for (Pc pc = 0; pc < n; ++pc) {
        const Instr &instr = code[pc];
        switch (instr.op) {
          case Opcode::Goto:
            leader[static_cast<Pc>(instr.a)] = true;
            if (pc + 1 < n)
                leader[pc + 1] = true;
            break;
          case Opcode::Tableswitch:
            for (std::int32_t target : instr.table)
                leader[static_cast<Pc>(target)] = true;
            leader[static_cast<Pc>(instr.b)] = true;
            if (pc + 1 < n)
                leader[pc + 1] = true;
            break;
          case Opcode::Return:
          case Opcode::Ireturn:
            if (pc + 1 < n)
                leader[pc + 1] = true;
            break;
          default:
            if (isCondBranch(instr.op)) {
                leader[static_cast<Pc>(instr.a)] = true;
                PEP_ASSERT_MSG(pc + 1 < n,
                               "conditional branch at end of "
                                   << method.name);
                leader[pc + 1] = true;
            }
            break;
        }
    }

    // Pass 2: create blocks.
    MethodCfg result;
    cfg::Graph &graph = result.graph;
    result.blockOfPc.assign(n, cfg::kInvalidBlock);

    // Entry (0) and exit (1) come from the Graph constructor.
    result.firstPc = {0, 0};
    result.lastPc = {0, 0};
    result.terminator = {TerminatorKind::None, TerminatorKind::None};

    std::vector<cfg::BlockId> block_at_pc(n, cfg::kInvalidBlock);
    for (Pc pc = 0; pc < n; ++pc) {
        if (leader[pc]) {
            const cfg::BlockId b = graph.addBlock();
            block_at_pc[pc] = b;
            result.firstPc.push_back(pc);
            result.lastPc.push_back(pc);
            result.terminator.push_back(TerminatorKind::Fallthrough);
        }
    }

    // Pass 3: assign pcs to blocks and record block extents.
    cfg::BlockId current = cfg::kInvalidBlock;
    for (Pc pc = 0; pc < n; ++pc) {
        if (leader[pc])
            current = block_at_pc[pc];
        result.blockOfPc[pc] = current;
        result.lastPc[current] = pc;
    }

    // Pass 4: add edges in the documented successor order.
    graph.addEdge(graph.entry(), block_at_pc[0]);
    for (cfg::BlockId b = 2; b < graph.numBlocks(); ++b) {
        const Pc last = result.lastPc[b];
        const Instr &instr = code[last];
        switch (instr.op) {
          case Opcode::Goto:
            result.terminator[b] = TerminatorKind::Goto;
            graph.addEdge(b, result.blockOfPc[instr.a]);
            break;
          case Opcode::Tableswitch:
            result.terminator[b] = TerminatorKind::Switch;
            for (std::int32_t target : instr.table)
                graph.addEdge(b, result.blockOfPc[target]);
            graph.addEdge(b, result.blockOfPc[instr.b]);
            break;
          case Opcode::Return:
          case Opcode::Ireturn:
            result.terminator[b] = TerminatorKind::Return;
            graph.addEdge(b, graph.exit());
            break;
          default:
            if (isCondBranch(instr.op)) {
                result.terminator[b] = TerminatorKind::Cond;
                graph.addEdge(b, result.blockOfPc[instr.a]); // taken
                graph.addEdge(b, result.blockOfPc[last + 1]); // not taken
            } else {
                PEP_ASSERT_MSG(last + 1 < n,
                               "code falls off the end of "
                                   << method.name);
                result.terminator[b] = TerminatorKind::Fallthrough;
                graph.addEdge(b, result.blockOfPc[last + 1]);
            }
            break;
        }
    }

    // Pass 5: loop analysis.
    const cfg::DfsResult dfs = cfg::depthFirstSearch(graph);
    const cfg::LoopInfo loops = cfg::findLoops(graph, dfs);
    result.isLoopHeader = loops.loopHeader;
    result.backEdges = loops.backEdges;
    result.reducible = cfg::isReducible(graph);

    // Pass 6: the flat edge numbering.
    result.edgeBase.resize(graph.numBlocks() + 1);
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        result.edgeBase[b + 1] =
            result.edgeBase[b] +
            static_cast<std::uint32_t>(graph.succs(b).size());
    }

    return result;
}

} // namespace pep::bytecode
