/**
 * @file
 * Profile explorer: a pedagogical tool that shows PEP's machinery on a
 * method — the CFG, the P-DAG with its dummy edges, the path numbering
 * (Ball-Larus and smart), the instrumentation plan, and the complete
 * enumeration of acyclic paths with their numbers.
 *
 * Usage:
 *   ./build/examples/profile_explorer             # built-in sample
 *   ./build/examples/profile_explorer file.pepasm # your own program
 *   ./build/examples/profile_explorer file.pepasm --dot  # Graphviz
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/disassembler.hh"
#include "cfg/dot.hh"
#include "profile/instr_plan.hh"
#include "profile/reconstruct.hh"

namespace {

/** The paper's Figure 1 / Figure 3 shape: an if-else inside a loop. */
const char *kSample = R"(
.globals 1
.method main 0 2
    iconst 6
    istore 0
header:
    iload 0
    ifle exit
    irnd
    iconst 1
    iand
    ifeq right
    iinc 1 2
    goto join
right:
    iinc 1 5
join:
    iinc 0 -1
    goto header
exit:
    return
.end
.main main
)";

const char *
roleName(pep::profile::NodeRole role)
{
    using pep::profile::NodeRole;
    switch (role) {
      case NodeRole::Entry:
        return "ENTRY";
      case NodeRole::Exit:
        return "EXIT";
      case NodeRole::Plain:
        return "block";
      case NodeRole::HeaderTop:
        return "hdrTop";
      case NodeRole::HeaderRest:
        return "hdrRest";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pep;

    std::string source = kSample;
    bool dot = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dot") {
            dot = true;
        } else {
            std::ifstream in(arg);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", arg.c_str());
                return 1;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            source = buffer.str();
        }
    }

    const bytecode::Program program = bytecode::assembleOrDie(source);
    const bytecode::Method &method =
        program.methods[program.mainMethod];
    const bytecode::MethodCfg cfg = bytecode::buildCfg(method);

    std::printf("== method %s: %zu instructions, %zu blocks, %zu loop "
                "header(s), %s ==\n\n",
                method.name.c_str(), method.code.size(),
                cfg.graph.numBlocks(), cfg.numLoopHeaders(),
                cfg.reducible ? "reducible" : "IRREDUCIBLE");

    if (dot) {
        cfg::DotOptions options;
        options.name = "cfg";
        options.blockLabel = [&](cfg::BlockId b) {
            if (b == cfg.graph.entry())
                return std::string("ENTRY");
            if (b == cfg.graph.exit())
                return std::string("EXIT");
            std::ostringstream os;
            os << "B" << b << " [" << cfg.firstPc[b] << ".."
               << cfg.lastPc[b] << "]";
            if (cfg.isLoopHeader[b])
                os << " HDR";
            return os.str();
        };
        std::printf("%s\n", cfg::toDot(cfg.graph, options).c_str());
        return 0;
    }

    // Blocks.
    std::printf("-- CFG blocks --\n");
    for (cfg::BlockId b = 2; b < cfg.graph.numBlocks(); ++b) {
        std::printf("  B%-2u pc %2u..%-2u %s", b, cfg.firstPc[b],
                    cfg.lastPc[b],
                    cfg.isLoopHeader[b] ? "[loop header]" : "");
        std::printf(" -> ");
        for (cfg::BlockId succ : cfg.graph.succs(b)) {
            if (succ == cfg.graph.exit())
                std::printf("EXIT ");
            else
                std::printf("B%u ", succ);
        }
        std::printf("\n");
    }

    // P-DAG in both modes.
    for (const auto mode : {profile::DagMode::HeaderSplit,
                            profile::DagMode::BackEdgeTruncate}) {
        const bool split = mode == profile::DagMode::HeaderSplit;
        std::printf("\n-- P-DAG (%s) --\n",
                    split ? "HeaderSplit: PEP, paths end at headers"
                          : "BackEdgeTruncate: classic BLPP");
        const profile::PDag pdag = profile::buildPDag(cfg, mode);
        const profile::Numbering numbering = profile::numberPaths(
            pdag, profile::NumberingScheme::BallLarus);
        if (numbering.overflow) {
            std::printf("  (path count overflow; skipping)\n");
            continue;
        }
        std::printf("  %llu acyclic paths\n",
                    static_cast<unsigned long long>(
                        numbering.totalPaths));

        for (cfg::BlockId node = 0; node < pdag.dag.numBlocks();
             ++node) {
            const auto &succs = pdag.dag.succs(node);
            for (std::uint32_t i = 0; i < succs.size(); ++i) {
                const auto &meta = pdag.meta(cfg::EdgeRef{node, i});
                const char *kind =
                    meta.kind == profile::DagEdgeKind::Real
                        ? ""
                        : (meta.kind ==
                                   profile::DagEdgeKind::DummyEntry
                               ? " (dummy-entry)"
                               : " (dummy-exit)");
                std::printf("  %6s#%-2u -> %6s#%-2u  val=%llu%s\n",
                            roleName(pdag.role[node]), node,
                            roleName(pdag.role[succs[i]]), succs[i],
                            static_cast<unsigned long long>(
                                numbering.val[node][i]),
                            kind);
            }
        }

        // Enumerate every path.
        const profile::PathReconstructor reconstructor(cfg, pdag,
                                                       numbering);
        std::printf("  paths:\n");
        for (std::uint64_t n = 0; n < numbering.totalPaths; ++n) {
            const profile::ReconstructedPath path =
                reconstructor.reconstruct(n);
            std::printf("    #%llu: ",
                        static_cast<unsigned long long>(n));
            if (path.startHeader != cfg::kInvalidBlock)
                std::printf("[starts at hdr B%u] ", path.startHeader);
            for (const cfg::EdgeRef &e : path.cfgEdges) {
                const cfg::BlockId dst = cfg.graph.edgeDst(e);
                if (e.src == cfg.graph.entry())
                    std::printf("ENTRY");
                else
                    std::printf("B%u", e.src);
                std::printf("->");
                if (dst == cfg.graph.exit())
                    std::printf("EXIT");
                else
                    std::printf("B%u", dst);
                std::printf(" ");
            }
            if (path.endHeader != cfg::kInvalidBlock)
                std::printf("[ends at hdr B%u]", path.endHeader);
            std::printf(" (%u branches)\n", path.numBranches);
        }

        // The instrumentation plan.
        const profile::InstrumentationPlan plan =
            profile::buildInstrumentationPlan(cfg, pdag, numbering);
        std::printf("  instrumentation: %zu edge increment(s)\n",
                    plan.numInstrumentedEdges);
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            for (std::uint32_t i = 0;
                 i < cfg.graph.succs(b).size(); ++i) {
                const profile::EdgeAction &action =
                    plan.flatAction({b, i});
                if (action.increment != 0) {
                    std::printf("    edge B%u->B%u: r += %llu\n", b,
                                cfg.graph.succs(b)[i],
                                static_cast<unsigned long long>(
                                    action.increment));
                }
                if (action.endsPath) {
                    std::printf("    back edge B%u->B%u: count[r+%llu]"
                                "++, r = %llu\n",
                                b, cfg.graph.succs(b)[i],
                                static_cast<unsigned long long>(
                                    action.endAdd),
                                static_cast<unsigned long long>(
                                    action.restart));
                }
            }
            const profile::HeaderAction &header =
                plan.headerActions[b];
            if (header.endsPath) {
                std::printf("    header B%u yieldpoint: sample r+%llu,"
                            " then r = %llu\n",
                            b,
                            static_cast<unsigned long long>(
                                header.endAdd),
                            static_cast<unsigned long long>(
                                header.restart));
            }
        }
    }
    return 0;
}
