/**
 * @file
 * pep_run: a command-line driver that loads a .pepasm program, runs it
 * under a chosen profiler, and reports profiles — the closest thing to
 * "using PEP as a tool". Also exercises the advice-file workflow: a
 * first run can record advice that a later run replays, exactly like
 * the paper's replay methodology.
 *
 * Usage:
 *   pep_run <program.pepasm> [options]
 *     --profiler pep|perfect|blpp|none    (default: pep)
 *     --samples N                          (default: 64)
 *     --stride N                           (default: 17)
 *     --iterations N                       (default: 2)
 *     --tick CYCLES                        (default: 300000)
 *     --osr                                enable on-stack replacement
 *     --inline                             inline leaf calls at opt tiers
 *     --record-advice FILE                 write advice after the run
 *     --replay-advice FILE                 replay a recorded run
 *     --top N                              paths/branches to print
 *   Every N and CYCLES must be a positive integer; a file that does
 *   not assemble or verify is reported with its name (exit 1).
 *
 * Examples:
 *   pep_run examples/programs/sort.pepasm
 *   pep_run examples/programs/rle.pepasm --profiler perfect --top 10
 *   pep_run examples/programs/sort.pepasm --record-advice /tmp/adv
 *   pep_run examples/programs/sort.pepasm --replay-advice /tmp/adv
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "bytecode/assembler.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/path_accuracy.hh"
#include "vm/advice_io.hh"
#include "vm/machine.hh"

namespace {

struct Options
{
    std::string programPath;
    std::string profiler = "pep";
    std::uint32_t samples = 64;
    std::uint32_t stride = 17;
    int iterations = 2;
    std::uint64_t tick = 300'000;
    bool osr = false;
    bool inlining = false;
    std::string recordAdvice;
    std::string replayAdvice;
    std::size_t top = 8;
};

/** Parse a positive decimal count; false on zero, junk or overflow. */
template <typename T>
bool
parseCount(const char *text, T &out)
{
    if (!text || !std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value == 0 ||
        value > static_cast<unsigned long long>(
                    std::numeric_limits<T>::max()))
        return false;
    out = static_cast<T>(value);
    return true;
}

/** Take a string argument; false when it is missing. */
bool
parseText(const char *text, std::string &out)
{
    if (text)
        out = text;
    return text != nullptr;
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        bool ok = true;
        if (arg == "--profiler")
            ok = parseText(next(), options.profiler);
        else if (arg == "--samples")
            ok = parseCount(next(), options.samples);
        else if (arg == "--stride")
            ok = parseCount(next(), options.stride);
        else if (arg == "--iterations")
            ok = parseCount(next(), options.iterations);
        else if (arg == "--tick")
            ok = parseCount(next(), options.tick);
        else if (arg == "--osr")
            options.osr = true;
        else if (arg == "--inline")
            options.inlining = true;
        else if (arg == "--record-advice")
            ok = parseText(next(), options.recordAdvice);
        else if (arg == "--replay-advice")
            ok = parseText(next(), options.replayAdvice);
        else if (arg == "--top")
            ok = parseCount(next(), options.top);
        else if (arg.rfind("--", 0) != 0)
            options.programPath = arg;
        else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            ok = false;
        }
        if (!ok)
            return false;
    }
    return !options.programPath.empty();
}

void
printPathReport(const pep::bytecode::Program &program,
                pep::metrics::CanonicalPathProfile paths,
                std::size_t top)
{
    const auto ranked = pep::metrics::rankByFlow(paths, top);
    std::printf("  %zu distinct paths, total flow %.0f\n",
                paths.paths.size(), paths.totalFlow());
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        std::printf("   %2zu. %-12s %3zu edges  %6.2f%% of flow\n",
                    i + 1,
                    program.methods[ranked[i].key->method]
                        .name.c_str(),
                    ranked[i].key->edges.size(),
                    100.0 * ranked[i].flowShare);
    }
}

void
printBranchReport(const pep::vm::Machine &machine,
                  const pep::profile::EdgeProfileSet &edges,
                  std::size_t top)
{
    struct Row
    {
        std::string label;
        double bias;
        std::uint64_t total;
    };
    std::vector<Row> rows;
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const auto id = static_cast<pep::bytecode::MethodId>(m);
        const auto &cfg = machine.info(id).cfg;
        for (pep::cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            if (cfg.terminator[b] !=
                pep::bytecode::TerminatorKind::Cond) {
                continue;
            }
            const auto counts = edges.perMethod[m].branch(b);
            if (counts.total() == 0)
                continue;
            std::ostringstream os;
            os << machine.program().methods[m].name << "@pc"
               << cfg.branchPc(b);
            rows.push_back(
                Row{os.str(), counts.takenBias(), counts.total()});
        }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.total > b.total;
                     });
    for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
        std::printf("   %-24s taken %5.1f%%  (%llu)\n",
                    rows[i].label.c_str(), 100.0 * rows[i].bias,
                    static_cast<unsigned long long>(rows[i].total));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pep;

    Options options;
    if (!parseArgs(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: pep_run <program.pepasm> [--profiler "
                     "pep|perfect|blpp|none] [--samples N] [--stride "
                     "N] [--iterations N] [--tick C] [--osr] "
                     "[--inline] [--record-advice F] "
                     "[--replay-advice F] [--top N]\n"
                     "  (every N and C is a positive integer)\n");
        return 1;
    }

    std::ifstream in(options.programPath);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n",
                     options.programPath.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytecode::AssembleResult assembled =
        bytecode::assembleVerified(buffer.str());
    if (!assembled.ok) {
        std::fprintf(stderr, "%s: %s\n", options.programPath.c_str(),
                     assembled.error.c_str());
        return 1;
    }
    const bytecode::Program program = std::move(assembled.program);

    vm::SimParams params;
    params.tickCycles = options.tick;
    params.enableOsr = options.osr;
    params.enableInlining = options.inlining;
    vm::Machine machine(program, params);

    // Advice replay, if requested.
    vm::ReplayAdvice advice;
    if (!options.replayAdvice.empty()) {
        std::vector<bytecode::MethodCfg> cfgs;
        for (std::size_t m = 0; m < machine.numMethods(); ++m) {
            cfgs.push_back(machine.info(
                static_cast<bytecode::MethodId>(m)).cfg);
        }
        vm::ParseAdviceResult parsed =
            vm::loadAdviceFile(options.replayAdvice, cfgs);
        if (!parsed.ok) {
            std::fprintf(stderr, "%s\n", parsed.error.c_str());
            return 1;
        }
        advice = std::move(parsed.advice);
        machine.enableReplay(&advice);
        std::printf("replaying advice from %s\n",
                    options.replayAdvice.c_str());
    }

    // Profiler selection.
    std::unique_ptr<core::SamplingController> controller;
    std::unique_ptr<core::PepProfiler> pep;
    std::unique_ptr<core::FullPathProfiler> full;
    if (options.profiler == "pep") {
        controller = std::make_unique<core::SimplifiedArnoldGrove>(
            options.samples, options.stride);
        pep = std::make_unique<core::PepProfiler>(machine, *controller);
        machine.addHooks(pep.get());
        machine.addCompileObserver(pep.get());
    } else if (options.profiler == "perfect") {
        full = std::make_unique<core::FullPathProfiler>(
            machine, profile::DagMode::HeaderSplit, true);
        machine.addHooks(full.get());
        machine.addCompileObserver(full.get());
    } else if (options.profiler == "blpp") {
        full = std::make_unique<core::FullPathProfiler>(
            machine, profile::DagMode::BackEdgeTruncate, true,
            profile::NumberingScheme::BallLarus,
            core::PathStoreKind::Array);
        machine.addHooks(full.get());
        machine.addCompileObserver(full.get());
    } else if (options.profiler != "none") {
        std::fprintf(stderr, "unknown profiler %s\n",
                     options.profiler.c_str());
        return 1;
    }

    // Run.
    for (int i = 0; i < options.iterations; ++i) {
        const std::uint64_t cycles = machine.runIteration();
        std::printf("iteration %d: %.2f Mcycles (%llu instructions, "
                    "%llu ticks so far)\n",
                    i + 1, cycles / 1e6,
                    static_cast<unsigned long long>(
                        machine.stats().instructionsExecuted),
                    static_cast<unsigned long long>(
                        machine.stats().timerTicks));
    }
    std::printf("engine %s: %llu versions translated\n",
                vm::engineKindName(machine.params().engine),
                static_cast<unsigned long long>(
                    machine.stats().methodsDecoded));

    // Reports.
    if (pep) {
        std::printf("\npep: %llu samples recorded (%llu paths "
                    "completed)\n",
                    static_cast<unsigned long long>(
                        pep->pepStats().samplesRecorded),
                    static_cast<unsigned long long>(
                        pep->pepStats().pathsCompleted));
        printPathReport(program, metrics::canonicalize(*pep),
                        options.top);
        std::printf("\n  hottest branches (continuous profile):\n");
        printBranchReport(machine, pep->edgeProfile(), options.top);
    } else if (full) {
        std::printf("\n%s: %llu paths stored\n",
                    options.profiler.c_str(),
                    static_cast<unsigned long long>(
                        full->pathsStored()));
        printPathReport(program, metrics::canonicalize(*full),
                        options.top);
    }

    std::printf("\n  hottest branches (ground truth):\n");
    printBranchReport(machine, machine.truthEdges(), options.top);

    if (!options.recordAdvice.empty()) {
        const vm::ReplayAdvice recorded = machine.recordAdvice();
        if (vm::saveAdviceFile(options.recordAdvice, recorded)) {
            std::printf("\nadvice recorded to %s\n",
                        options.recordAdvice.c_str());
        }
    }
    return 0;
}
