/**
 * @file
 * pep-verify: static checker and profile-realizability verifier for
 * .pepasm programs (docs/ANALYSIS.md). Assembles each input and runs
 * the static phase (analysis/lint.hh): the multi-diagnostic bytecode
 * verifier, the dataflow lints (dead stores, unreachable code,
 * abstract stack/constant findings), the instrumentation-plan checker
 * over every (DAG mode, numbering scheme, placement) configuration the
 * profiling pipeline can produce, and the template-stream proof
 * (analysis/verify/stream_proof.hh) over every fusion selection. Then
 * — unless --static-only, and only when the static phase found no
 * error — it runs the program under the configured engine with a full
 * path profiler and a PEP(1,1) sampler attached and audits the
 * finished run (testing::auditRun): the stream proof of every
 * installed version, the origin audit of every cloned body, the k-path
 * id space of every plan, and the realizability of every recorded
 * profile.
 *
 * Usage:
 *   pep_verify [options] <program.pepasm>...
 *     --json          emit diagnostics as a JSON array
 *     --werror        exit nonzero on warnings too
 *     --quiet         print errors only (text mode)
 *     --static-only   skip the dynamic run
 *     --iters N       iterations of the dynamic run (default 3)
 *     --kiter N       k-BLPP window length of the dynamic profilers
 *                     (default 1 = classic BLPP); path profiles are
 *                     then checked against the composite k-path id
 *                     space, including per-digit reconstruction and
 *                     window chaining (docs/KBLPP.md)
 *
 * Findings are emitted in a deterministic order — sorted by (file,
 * method, version, pass, check, location) — so CI diffs are stable
 * regardless of pass scheduling.
 *
 * Exit status: 0 clean, 1 diagnostics at the failing severity, 2 usage
 * or file errors.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/lint.hh"
#include "bytecode/assembler.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "support/panic.hh"
#include "testing/differ.hh"
#include "vm/machine.hh"

namespace {

using pep::analysis::Diagnostic;
using pep::analysis::DiagnosticList;
using pep::analysis::Severity;

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

/** The one numeric parser: a whole positive decimal count. */
bool
parseCount(const char *text, std::uint32_t &out)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end && out > 0;
}

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
        } else if (arg == "--iters" || arg == "--kiter") {
            if (i + 1 >= argc ||
                !parseCount(argv[++i], arg == "--iters" ? options.iters
                                                        : options.kiter))
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

/** Run the program with a full path profiler and PEP(1,1) attached,
 *  then audit the finished run. */
void
dynamicPhase(const pep::bytecode::Program &program, const Options &options,
             DiagnosticList &diagnostics)
{
    pep::vm::SimParams params;
    params.tickCycles = 9'000;
    params.maxCyclesPerIteration = 50'000'000;
    pep::vm::Machine machine(program, params);

    pep::core::FullPathProfiler full(
        machine, pep::profile::DagMode::HeaderSplit,
        /*charge_costs=*/false, pep::profile::NumberingScheme::BallLarus,
        pep::core::PathStoreKind::Array,
        pep::profile::PlacementKind::Direct, options.kiter);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);

    const pep::testing::PepConfig sampling{1, 1};
    pep::core::SimplifiedArnoldGrove controller(sampling.samples,
                                                sampling.stride);
    pep::core::PepOptions pep_options;
    pep_options.kIterations = options.kiter;
    pep::core::PepProfiler pep(machine, controller, pep_options);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);

    try {
        for (std::uint32_t it = 0; it < options.iters; ++it)
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

    pep::testing::auditRun(machine, full, {&pep}, {sampling}, diagnostics);
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

    bool io_error = false;
    std::size_t errors = 0, warnings = 0;
    std::vector<Diagnostic> findings;
    for (const std::string &path : options.files) {
        std::string source;
        if (!readFile(path, source)) {
            std::fprintf(stderr, "pep-verify: cannot read '%s'\n",
                         path.c_str());
            io_error = true;
            continue;
        }

        DiagnosticList diagnostics;
        pep::bytecode::AssembleResult assembled =
            pep::bytecode::assemble(source);
        if (!assembled.ok) {
            diagnostics.report(Severity::Error, "assemble", "",
                               assembled.error);
        } else {
            diagnostics = pep::analysis::lintProgram(assembled.program);
            if (!diagnostics.hasErrors() && !options.staticOnly)
                dynamicPhase(assembled.program, options, diagnostics);
        }
        errors += diagnostics.errorCount();
        warnings += diagnostics.warningCount();
        for (Diagnostic d : diagnostics.all()) {
            d.file = path;
            findings.push_back(std::move(d));
        }
    }
    pep::analysis::sortDiagnostics(findings);

    if (options.json) {
        std::printf("%s", pep::analysis::diagnosticsToJson(findings).c_str());
    } else {
        for (const Diagnostic &d : findings) {
            if (!options.quiet || d.severity == Severity::Error)
                std::printf("%s\n",
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
