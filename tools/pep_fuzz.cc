/**
 * @file
 * pep-fuzz: differential fuzzing driver. Generates verifier-clean
 * random programs biased toward the shapes that stress path profiling
 * (nested loops, shared loop headers, switch fans, early returns, call
 * chains), runs each through the exact oracle, full BLPP and several
 * PEP sampling configurations on one
 * deterministic Machine, and cross-checks the oracle invariants. On a
 * violation the built-in shrinker reduces the program while it still
 * reproduces and writes a minimal .pepasm reproducer to the corpus
 * directory, which the fuzz_regression_test replays forever.
 *
 * Usage:
 *   pep_fuzz [options]
 *     --iters N            programs to generate (default 200)
 *     --seed S             base seed (default 1)
 *     --seed-from-run-id   derive the seed from $GITHUB_RUN_ID
 *     --configs a,b,c      comma-separated standard configs (default
 *                          all: headersplit-direct, smart-spanning-osr,
 *                          backedge, inline-smart, kiter2-smart-osr,
 *                          kiter4-backedge, kiter4-inline)
 *     --kiter N            override every selected config's k-BLPP
 *                          window length (default: $PEP_KITER if set,
 *                          else each config's own kIterations). Avoid
 *                          with --corpus-dir: corpus replay rebuilds
 *                          options from the config name alone
 *     --loop-bias X        generator loop-heaviness in [0,1] (deeper
 *                          nesting, irregular trips, shared headers);
 *                          0 is the legacy byte-identical stream
 *     --inject KIND        none | corrupt-increment |
 *                          engine-divergence | impossible-profile |
 *                          truncated-window — deliberately break one
 *                          invariant (harness self-test)
 *     --expect-caught      exit 0 iff at least one violation was found
 *     --no-shrink          skip reduction of failing programs
 *     --corpus-dir DIR     where to write reproducers (none by default)
 *     --jobs N             worker threads (default: PEP_BENCH_THREADS
 *                          or hardware concurrency)
 *     --verbose            per-iteration progress
 *
 * Exit status: 0 clean (or caught, with --expect-caught), 1 violations
 * (or nothing caught under --expect-caught), 2 usage errors.
 *
 * A generated program that blows the interpreter's per-iteration
 * cycle budget even with injection and fusion stripped (the two knobs
 * contracted not to change cycles) is skipped, not reported — deeply
 * loop-biased generation occasionally outruns the runaway guard, and
 * such a program proves nothing. Skips are counted and printed, never
 * silent; a budget blowup that appears only WITH injection or fusion
 * is still a violation.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/panic.hh"
#include "testing/differ.hh"
#include "testing/generator.hh"
#include "testing/shrink.hh"
#include "workload/parallel_runner.hh"

namespace {

using pep::testing::DiffOptions;
using pep::testing::DiffReport;
using pep::testing::InjectKind;

struct Options
{
    std::uint64_t iters = 200;
    std::uint64_t seed = 1;
    bool seedFromRunId = false;
    std::vector<std::string> configs;
    std::uint32_t kiter = 0; // 0 = keep each config's kIterations
    double loopBias = 0.0;
    InjectKind inject = InjectKind::None;
    bool expectCaught = false;
    bool shrink = true;
    std::string corpusDir;
    unsigned jobs = 0;
    bool verbose = false;
};

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&](std::uint64_t &out) {
            if (i + 1 >= argc)
                return false;
            out = std::strtoull(argv[++i], nullptr, 10);
            return true;
        };
        if (arg == "--iters") {
            if (!next(options.iters))
                return false;
        } else if (arg == "--seed") {
            if (!next(options.seed))
                return false;
        } else if (arg == "--seed-from-run-id") {
            options.seedFromRunId = true;
        } else if (arg == "--configs") {
            if (i + 1 >= argc)
                return false;
            std::istringstream list(argv[++i]);
            std::string name;
            while (std::getline(list, name, ','))
                if (!name.empty())
                    options.configs.push_back(name);
        } else if (arg == "--kiter") {
            std::uint64_t kiter = 0;
            if (!next(kiter))
                return false;
            options.kiter = static_cast<std::uint32_t>(kiter);
        } else if (arg == "--loop-bias") {
            if (i + 1 >= argc)
                return false;
            options.loopBias = std::strtod(argv[++i], nullptr);
            if (options.loopBias < 0.0 || options.loopBias > 1.0)
                return false;
        } else if (arg == "--inject") {
            if (i + 1 >= argc ||
                !pep::testing::parseInjectKind(argv[++i],
                                               options.inject)) {
                return false;
            }
        } else if (arg == "--expect-caught") {
            options.expectCaught = true;
        } else if (arg == "--no-shrink") {
            options.shrink = false;
        } else if (arg == "--corpus-dir") {
            if (i + 1 >= argc)
                return false;
            options.corpusDir = argv[++i];
        } else if (arg == "--jobs") {
            std::uint64_t jobs = 0;
            if (!next(jobs))
                return false;
            options.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else {
            std::fprintf(stderr, "pep-fuzz: unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

/** SplitMix64 finalizer: independent per-iteration seeds. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Outcome of one generated program across the config sweep. */
struct IterOutcome
{
    std::uint64_t seed = 0;
    bool violated = false;
    std::string config;
    std::string firstViolation;
    std::size_t instrumentedVersions = 0;
    std::uint64_t oracleSegments = 0;
    std::size_t skippedConfigs = 0;
};

/** One guarded differ run: the report, or a skip verdict. */
struct GuardedResult
{
    DiffReport report;
    bool skipped = false;
};

bool
isCycleBudgetFatal(const char *what)
{
    return std::string_view(what).find("exceeded cycle budget") !=
           std::string_view::npos;
}

/**
 * True when the program blows the interpreter's runaway guard under
 * this config even with injection and fusion stripped — the only two
 * knobs contracted not to change simulated cycles. Such a program is
 * intrinsically too big for the per-iteration budget (deeply nested
 * loop-biased generation), so a budget fatal under the full options
 * proves nothing about the harness.
 */
bool
isIntrinsicRunaway(const pep::bytecode::Program &program,
                   const DiffOptions &opts)
{
    DiffOptions probe = opts;
    probe.inject = pep::testing::InjectKind::None;
    probe.fuse = {};
    try {
        (void)pep::testing::runDiff(program, probe);
        return false;
    } catch (const pep::support::FatalError &e) {
        return isCycleBudgetFatal(e.what());
    } catch (const pep::support::PanicError &) {
        return false;
    }
}

/**
 * Run one config, folding harness crashes into violations. A
 * cycle-budget runaway is reported only when the clean probe stays
 * inside the budget (then injection or fusion caused it — a genuine
 * finding); an intrinsically runaway program is skipped instead, and
 * the skip is counted so coverage loss is never silent.
 */
GuardedResult
runGuarded(const pep::bytecode::Program &program,
           const DiffOptions &opts)
{
    GuardedResult result;
    try {
        result.report = pep::testing::runDiff(program, opts);
    } catch (const pep::support::PanicError &e) {
        result.report.violations.push_back(std::string("panic: ") +
                                           e.what());
    } catch (const pep::support::FatalError &e) {
        if (isCycleBudgetFatal(e.what()) &&
            isIntrinsicRunaway(program, opts)) {
            result.skipped = true;
            return result;
        }
        result.report.violations.push_back(std::string("fatal: ") +
                                           e.what());
    }
    return result;
}

bool
writeCorpusFile(const Options &options,
                const pep::bytecode::Program &program,
                const std::string &config, std::uint64_t seed,
                const std::string &violation)
{
    std::error_code ec;
    std::filesystem::create_directories(options.corpusDir, ec);
    std::ostringstream name;
    name << config << '-' << pep::testing::injectKindName(options.inject)
         << "-s" << seed << ".pepasm";
    const std::filesystem::path path =
        std::filesystem::path(options.corpusDir) / name.str();
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "pep-fuzz: cannot write %s\n",
                     path.string().c_str());
        return false;
    }
    out << pep::testing::formatCorpusFile(program, config, seed,
                                          options.inject, violation);
    std::fprintf(stderr, "pep-fuzz: reproducer written to %s\n",
                 path.string().c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        std::fprintf(stderr, "pep-fuzz: bad usage (see header)\n");
        return 2;
    }

    if (options.seedFromRunId) {
        const char *run_id = std::getenv("GITHUB_RUN_ID");
        if (run_id && *run_id)
            options.seed = std::strtoull(run_id, nullptr, 10);
    }
    options.iters = pep::testing::fuzzItersFromEnv(options.iters);
    if (options.kiter == 0)
        options.kiter = pep::testing::kIterationsFromEnv(0);

    std::vector<const DiffOptions *> configs;
    if (options.configs.empty()) {
        for (const DiffOptions &config :
             pep::testing::standardConfigs()) {
            configs.push_back(&config);
        }
    } else {
        for (const std::string &name : options.configs) {
            const DiffOptions *config =
                pep::testing::findConfig(name);
            if (!config) {
                std::fprintf(stderr,
                             "pep-fuzz: unknown config '%s'\n",
                             name.c_str());
                return 2;
            }
            configs.push_back(config);
        }
    }

    std::vector<IterOutcome> outcomes(options.iters);
    const pep::workload::ParallelRunner runner(options.jobs);
    runner.run(options.iters, [&](std::size_t index) {
        IterOutcome &outcome = outcomes[index];
        outcome.seed = mixSeed(options.seed, index);
        pep::testing::FuzzSpec spec;
        spec.seed = outcome.seed;
        spec.loopBias = options.loopBias;
        const pep::bytecode::Program program =
            pep::testing::generateProgram(spec);
        for (const DiffOptions *config : configs) {
            DiffOptions opts = *config;
            opts.inject = options.inject;
            if (options.kiter > 0)
                opts.kIterations = options.kiter;
            const GuardedResult guarded = runGuarded(program, opts);
            if (guarded.skipped) {
                ++outcome.skippedConfigs;
                continue;
            }
            const DiffReport &report = guarded.report;
            outcome.instrumentedVersions +=
                report.instrumentedVersions;
            outcome.oracleSegments += report.oracleSegments;
            if (!report.ok()) {
                outcome.violated = true;
                outcome.config = config->name;
                outcome.firstViolation = report.violations.front();
                break;
            }
        }
    });

    std::size_t total_instrumented = 0;
    std::uint64_t total_segments = 0;
    std::size_t total_skipped = 0;
    const IterOutcome *first_failure = nullptr;
    for (const IterOutcome &outcome : outcomes) {
        total_instrumented += outcome.instrumentedVersions;
        total_segments += outcome.oracleSegments;
        total_skipped += outcome.skippedConfigs;
        if (outcome.violated && !first_failure)
            first_failure = &outcome;
        if (options.verbose) {
            std::fprintf(stderr,
                         "pep-fuzz: seed %llu: %zu versions, %llu "
                         "segments%s%s\n",
                         static_cast<unsigned long long>(outcome.seed),
                         outcome.instrumentedVersions,
                         static_cast<unsigned long long>(
                             outcome.oracleSegments),
                         outcome.violated ? " VIOLATION in " : "",
                         outcome.violated ? outcome.config.c_str()
                                          : "");
        }
    }

    std::fprintf(stderr,
                 "pep-fuzz: %llu programs x %zu configs, %zu "
                 "instrumented versions, %llu oracle segments\n",
                 static_cast<unsigned long long>(options.iters),
                 configs.size(), total_instrumented,
                 static_cast<unsigned long long>(total_segments));
    if (total_skipped > 0) {
        std::fprintf(stderr,
                     "pep-fuzz: %zu config runs skipped "
                     "(intrinsically over the cycle budget)\n",
                     total_skipped);
    }

    if (total_instrumented == 0) {
        std::fprintf(stderr,
                     "pep-fuzz: coverage failure: no generated "
                     "program produced an instrumented version\n");
        return 1;
    }

    if (!first_failure) {
        if (options.expectCaught) {
            std::fprintf(stderr,
                         "pep-fuzz: expected the injected bug to be "
                         "caught, but every run was clean\n");
            return 1;
        }
        std::fprintf(stderr, "pep-fuzz: all runs clean\n");
        return 0;
    }

    std::fprintf(stderr, "pep-fuzz: seed %llu config %s: %s\n",
                 static_cast<unsigned long long>(first_failure->seed),
                 first_failure->config.c_str(),
                 first_failure->firstViolation.c_str());

    if (options.shrink || !options.corpusDir.empty()) {
        pep::testing::FuzzSpec spec;
        spec.seed = first_failure->seed;
        spec.loopBias = options.loopBias;
        pep::bytecode::Program failing =
            pep::testing::generateProgram(spec);
        const DiffOptions *config =
            pep::testing::findConfig(first_failure->config);
        DiffOptions opts = *config;
        opts.inject = options.inject;
        if (options.kiter > 0)
            opts.kIterations = options.kiter;
        std::string violation = first_failure->firstViolation;
        if (options.shrink) {
            const pep::testing::FailPredicate still_fails =
                [&](const pep::bytecode::Program &candidate) {
                    try {
                        return !pep::testing::runDiff(candidate, opts)
                                    .ok();
                    } catch (const pep::support::PanicError &) {
                        // A blown profiling assertion is still a find.
                        return true;
                    } catch (const pep::support::FatalError &) {
                        // Runaway loop / VM limit: the reduction broke
                        // the program, not the profilers — reject.
                        return false;
                    }
                };
            const pep::testing::ShrinkResult shrunk =
                pep::testing::shrinkProgram(failing, still_fails);
            std::fprintf(
                stderr,
                "pep-fuzz: shrunk to %zu methods in %zu attempts\n",
                shrunk.program.methods.size(), shrunk.attempts);
            failing = shrunk.program;
            const GuardedResult final_result =
                runGuarded(failing, opts);
            if (!final_result.skipped && !final_result.report.ok())
                violation = final_result.report.violations.front();
        }
        if (!options.corpusDir.empty()) {
            writeCorpusFile(options, failing, first_failure->config,
                            first_failure->seed, violation);
        }
    }

    return options.expectCaught ? 0 : 1;
}
