/**
 * @file
 * pep-verify: symbolic engine-equivalence and profile-realizability
 * verifier for .pepasm programs (docs/ANALYSIS.md). Assembles each
 * input, proves the threaded engine's template translation equivalent
 * to the bytecode for every method (pass 1, the template-stream
 * proof), then — unless --static-only — runs the program under the
 * configured engine with a full path profiler and a PEP(1,1) sampler
 * attached and verifies the resulting machine state and recorded
 * profiles:
 *
 *  - the stream proof of every installed version (baked layouts
 *    included) and the origin audit of every cloned body;
 *  - the k-path id space of every instrumentation plan;
 *  - realizability of every recorded profile: ground-truth edge
 *    counts (flow conservation incl. headers), PEP's sampled
 *    continuous edge profile and the full profiler's path-derived
 *    edge profile (conservation at non-header blocks, walk bounds),
 *    and both engines' path profiles (numbering range,
 *    reconstructibility, sample budgets).
 *
 * Usage:
 *   pep_verify [options] <program.pepasm>...
 *     --json          emit diagnostics as a JSON array
 *     --werror        exit nonzero on warnings too
 *     --quiet         print errors only (text mode)
 *     --static-only   skip the dynamic run (pass 1 + bytecode verify)
 *     --iters N       iterations of the dynamic run (default 3)
 *     --kiter N       k-BLPP window length of the dynamic profilers
 *                     (default 1 = classic BLPP); path profiles are
 *                     then checked against the composite k-path id
 *                     space, including per-digit reconstruction and
 *                     window chaining (docs/KBLPP.md)
 *
 * Exit status: 0 clean, 1 diagnostics at the failing severity, 2 usage
 * or file errors.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/plan_check.hh"
#include "analysis/verify/realizability.hh"
#include "analysis/verify/verify.hh"
#include "bytecode/assembler.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "support/panic.hh"
#include "vm/machine.hh"

namespace {

struct Options
{
    std::vector<std::string> files;
    bool json = false;
    bool werror = false;
    bool quiet = false;
    bool staticOnly = false;
    std::uint32_t iters = 3;
    std::uint32_t kiter = 1;
};

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            options.json = true;
        } else if (arg == "--werror") {
            options.werror = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--static-only") {
            options.staticOnly = true;
        } else if (arg == "--iters") {
            if (i + 1 >= argc)
                return false;
            options.iters = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--kiter") {
            if (i + 1 >= argc)
                return false;
            options.kiter = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
            if (options.kiter == 0)
                return false;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "pep-verify: unknown option '%s'\n",
                         arg.c_str());
            return false;
        } else {
            options.files.push_back(arg);
        }
    }
    return !options.files.empty();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** Audit one path engine's plans, k-path id spaces and path
 *  profiles. */
void
verifyEngineProfiles(const pep::vm::Machine &machine,
                     const pep::core::PathEngine &engine,
                     const std::string &what, std::uint64_t max_total,
                     pep::analysis::DiagnosticList &diagnostics)
{
    pep::analysis::RealizabilityOptions opts;
    opts.what = what;
    opts.walkMultiplicity = engine.kIterations();
    for (const auto &[key, vp] : engine.versionProfiles()) {
        const std::string &name =
            machine.program().methods[key.first].name;
        pep::analysis::KPathCheckInput kinput;
        kinput.plan = &vp->state->plan;
        kinput.kpath = &vp->state->kpath;
        kinput.kRequested = engine.kIterations();
        kinput.methodName = name;
        pep::analysis::checkKPathScheme(kinput, diagnostics);
        pep::analysis::checkPathProfileRealizability(
            vp->state->plan, *vp->state->reconstructor, vp->paths, opts,
            max_total, name, /*has_version=*/true, key.second,
            diagnostics, &vp->state->kpath);
    }
}

/** Run the program with profilers attached and verify machine state
 *  and every recorded profile. */
void
dynamicVerify(const pep::bytecode::Program &program,
              std::uint32_t iters, std::uint32_t kiter,
              pep::analysis::DiagnosticList &diagnostics)
{
    using pep::analysis::Severity;

    pep::vm::SimParams params;
    params.tickCycles = 9'000;
    params.maxCyclesPerIteration = 50'000'000;

    pep::vm::Machine machine(program, params);

    pep::core::FullPathProfiler full(
        machine, pep::profile::DagMode::HeaderSplit,
        /*charge_costs=*/false, pep::profile::NumberingScheme::BallLarus,
        pep::core::PathStoreKind::Array,
        pep::profile::PlacementKind::Direct, kiter);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);

    pep::core::SimplifiedArnoldGrove controller(1, 1);
    pep::core::PepOptions pep_options;
    pep_options.kIterations = kiter;
    pep::core::PepProfiler pep(machine, controller, pep_options);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);

    try {
        for (std::uint32_t it = 0; it < iters; ++it)
            machine.runIteration();
    } catch (const pep::support::PanicError &e) {
        diagnostics.report(Severity::Error, "run", "",
                           std::string("panic: ") + e.what());
        return;
    } catch (const pep::support::FatalError &e) {
        diagnostics.report(Severity::Error, "run", "",
                           std::string("fatal: ") + e.what());
        return;
    }

    // Installed versions: stream proofs and cloned-body audits.
    pep::analysis::verifyMachine(machine, diagnostics);

    // Plans and path profiles of both engines.
    verifyEngineProfiles(machine, full, "full-path profile",
                         full.pathsStored(), diagnostics);
    verifyEngineProfiles(machine, pep, "pep-sampled profile",
                         pep.pepStats().samplesRecorded, diagnostics);

    // Ground truth: complete frames, so conservation holds at loop
    // headers too.
    {
        pep::analysis::RealizabilityOptions opts;
        opts.what = "truth edges";
        opts.requireHeaderConservation = true;
        pep::analysis::checkEdgeSetRealizability(
            machine, machine.truthEdges(), opts, diagnostics);
    }
    // PEP's continuous edge profile: sums of sampled walks (k-windows
    // may cross one edge up to k times).
    {
        pep::analysis::RealizabilityOptions opts;
        opts.what = "pep-sampled edges";
        opts.maxWalks = pep.pepStats().samplesRecorded;
        opts.walkMultiplicity = kiter;
        pep::analysis::checkEdgeSetRealizability(
            machine, pep.edgeProfile(), opts, diagnostics);
    }
    // The full profiler's path-derived edge profile.
    {
        pep::analysis::RealizabilityOptions opts;
        opts.what = "path-derived edges";
        opts.maxWalks = full.pathsStored();
        opts.walkMultiplicity = kiter;
        const pep::profile::EdgeProfileSet derived =
            pep::core::edgeProfileFromPaths(machine, full);
        pep::analysis::checkEdgeSetRealizability(machine, derived, opts,
                                                 diagnostics);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        std::fprintf(
            stderr,
            "usage: pep_verify [--json] [--werror] [--quiet]"
            " [--static-only] [--iters N] [--kiter N]"
            " <program.pepasm>...\n");
        return 2;
    }

    using pep::analysis::Diagnostic;
    using pep::analysis::Severity;

    bool io_error = false;
    std::size_t errors = 0, warnings = 0;
    std::vector<std::pair<std::string, Diagnostic>> findings;

    for (const std::string &path : options.files) {
        std::string source;
        if (!readFile(path, source)) {
            std::fprintf(stderr, "pep-verify: cannot read '%s'\n",
                         path.c_str());
            io_error = true;
            continue;
        }

        pep::analysis::DiagnosticList diagnostics;
        pep::bytecode::AssembleResult assembled =
            pep::bytecode::assemble(source);
        if (!assembled.ok) {
            diagnostics.report(Severity::Error, "assemble", "",
                               assembled.error);
        } else {
            const bool clean = pep::analysis::verifyProgram(
                assembled.program, diagnostics);
            if (clean && !options.staticOnly) {
                dynamicVerify(assembled.program, options.iters,
                              options.kiter, diagnostics);
            }
        }

        errors += diagnostics.errorCount();
        warnings += diagnostics.warningCount();
        std::vector<Diagnostic> sorted = diagnostics.all();
        pep::analysis::sortDiagnostics(sorted);
        for (Diagnostic &d : sorted)
            findings.emplace_back(path, std::move(d));
    }

    if (options.json) {
        // One top-level array; each entry gains a "file" key.
        std::printf("[");
        bool first = true;
        for (const auto &[path, d] : findings) {
            std::vector<Diagnostic> one{d};
            std::string body = pep::analysis::diagnosticsToJson(one);
            const std::size_t brace = body.find('{');
            const std::size_t end = body.rfind('}');
            std::printf("%s\n  {\"file\": \"%s\", %s}",
                        first ? "" : ",", path.c_str(),
                        body.substr(brace + 1, end - brace - 1)
                            .c_str());
            first = false;
        }
        std::printf("\n]\n");
    } else {
        for (const auto &[path, d] : findings) {
            if (options.quiet && d.severity != Severity::Error)
                continue;
            std::printf("%s: %s\n", path.c_str(),
                        pep::analysis::formatDiagnostic(d).c_str());
        }
        if (!options.quiet) {
            std::printf("pep-verify: %zu file(s), %zu error(s), "
                        "%zu warning(s)\n",
                        options.files.size(), errors, warnings);
        }
    }

    if (io_error)
        return 2;
    if (errors > 0 || (options.werror && warnings > 0))
        return 1;
    return 0;
}
