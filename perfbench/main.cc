/**
 * @file
 * The benchmark binary. One process runs one workload:
 *
 *   perfbench --workload replay|serve|startup --seed N --seconds S
 *             [--trace] [--tiny] [--inject-divergence]
 *             [--trace-out FILE]
 *
 * Untraced, it times the workload's operations with no profiler and
 * with PEP(64,17), interleaved per operation, until S seconds have
 * passed, and prints the end-to-end metrics. Traced (--trace), it runs
 * the overhead ladder and the engine variants instead and prints the
 * per-layer metrics. Either way every output is checked against the
 * reference interpreter, and the last stdout line is one JSON object
 * with `correct`, `attempted`, `failed` and `metrics`. The process
 * exits nonzero if any check failed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "replay|serve|startup --seed N --seconds S [--trace] "
                 "[--tiny] [--inject-divergence] [--trace-out FILE]\n",
                 message);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--inject-divergence") {
            options.injectDivergence = true;
        } else if (arg == "--trace-out") {
            options.traceOut = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!(options.seconds > 0.0 && options.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "replay")
        return makeReplay(options);
    if (options.workload == "serve")
        return makeServe(options);
    if (options.workload == "startup")
        return makeStartup(options);
    usage("unknown workload");
}

/** Rounds until `seconds` have passed (at least `min_rounds`). */
std::vector<std::vector<Sample>>
measure(Workload &workload, double seconds, int min_rounds, Report &report,
        std::vector<double> *throughput)
{
    std::vector<std::vector<Sample>> rounds;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(rounds.size()) < min_rounds ||
           secondsSince(start) < seconds) {
        rounds.push_back(workload.round(report));
        if (throughput)
            throughput->push_back(
                workload.throughputRep(rounds.back(), report));
    }
    return rounds;
}

/** Per-round values of f(samples of one round). */
template <typename F>
std::vector<double>
perRound(const std::vector<std::vector<Sample>> &rounds, F f)
{
    std::vector<double> values;
    for (const std::vector<Sample> &round : rounds)
        values.push_back(f(round));
    return values;
}

double
nsPerInstr(const Sample &s)
{
    return s.counters.instructions
               ? s.wall / static_cast<double>(s.counters.instructions) * 1e9
               : 0.0;
}

LatencyHistogram
pooledOps(const std::vector<std::vector<Sample>> &rounds, std::size_t c)
{
    LatencyHistogram all;
    for (const std::vector<Sample> &round : rounds)
        all.merge(round[c].ops);
    return all;
}

/** Mean per-round counters of configuration c. */
Counters
meanCounters(const std::vector<std::vector<Sample>> &rounds, std::size_t c)
{
    Counters sum;
    for (const std::vector<Sample> &round : rounds)
        sum.add(round[c].counters);
    const auto n = static_cast<std::uint64_t>(rounds.size());
    Counters mean = sum;
    for (std::uint64_t *field :
         {&mean.instructions, &mean.invocations, &mean.cycles,
          &mean.compiles, &mean.methodsDecoded, &mean.edges,
          &mean.yieldpoints, &mean.pathsCompleted, &mean.samplesTaken,
          &mean.samplesRecorded, &mean.firstTimeExpansions,
          &mean.pipelineRuns, &mean.layoutsApplied, &mean.clonesApplied}) {
        *field /= n;
    }
    mean.pipelineSeconds /= static_cast<double>(n);
    return mean;
}

Config
engineVariant(vm::EngineKind engine, bool pairs, bool traces)
{
    Config config;
    config.engine = engine;
    config.fuse = vm::FuseOptions{pairs, traces};
    return config;
}

void
runEndToEnd(const Options &options, Report &report)
{
    const bool startup = options.workload == "startup";
    Config base;
    Config pep;
    pep.prof = Prof::Pep;
    pep.pipeline = startup;
    const std::vector<Config> configs = {base, pep};

    // Set-up is repeated and its median reported, so that work moved
    // into set-up shows as its own metric: at least three times, and
    // fast set-ups until they have taken a second.
    const std::size_t min_setups = options.tiny ? 1 : 3;
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    Tracer tracer;
    const Clock::time_point setup_start = Clock::now();
    while (setups.size() < min_setups ||
           (setups.size() < 25 && secondsSince(setup_start) < 1.0 &&
            !options.tiny)) {
        workload.reset();
        workload = makeWorkload(options);
        const Clock::time_point start = Clock::now();
        workload->setup(configs, tracer);
        setups.push_back(secondsSince(start));
    }

    std::vector<double> throughput;
    const auto rounds = measure(*workload, options.seconds,
                                options.tiny ? 1 : 3, report, &throughput);
    workload->verify(report);

    report.metric("setup_s", median(setups), "s");
    report.metric("base_ns_per_instr",
                  median(perRound(rounds, [](const auto &r) {
                      return nsPerInstr(r[0]);
                  })),
                  "ns");
    report.metric("pep_ns_per_instr",
                  median(perRound(rounds, [](const auto &r) {
                      return nsPerInstr(r[1]);
                  })),
                  "ns");
    report.metric("pep_wall_ratio",
                  median(perRound(rounds, [](const auto &r) {
                      return r[1].wall / r[0].wall;
                  })),
                  "ratio");
    const LatencyHistogram ops = pooledOps(rounds, 1);
    report.metric("op_p50_us", ops.percentile(50.0), "us");
    report.metric("ops_per_s", median(throughput), "1/s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    // The tail moves with host noise far more than the code does, so
    // it is printed for reading, not reported as a metric.
    std::printf("rounds: %zu, operations timed per configuration: %llu, "
                "with PEP p99 %.6g us, p99.9 %.6g us\n",
                rounds.size(), static_cast<unsigned long long>(ops.count()),
                ops.percentile(99.0), ops.percentile(99.9));
    const auto spread = [](const char *name, std::vector<double> values) {
        std::sort(values.begin(), values.end());
        std::printf("%s per round: min %.6g, median %.6g, max %.6g\n", name,
                    values.front(), median(values), values.back());
    };
    spread("ops_per_s", throughput);
    spread("pep_ns_per_instr", perRound(rounds, [](const auto &r) {
               return nsPerInstr(r[1]);
           }));
}

void
runTraced(const Options &options, Report &report)
{
    const bool startup = options.workload == "startup";
    enum Index
    {
        kBase,
        kEmpty,
        kNever,
        kPep,
        kBlpp,
        kSwitch,
        kFuseNone,
        kFuseTraces,
        kCounted,
        kPipeline,
    };
    std::vector<Config> configs(kPipeline);
    configs[kEmpty].prof = Prof::Empty;
    configs[kNever].prof = Prof::Never;
    configs[kPep].prof = Prof::Pep;
    configs[kBlpp].prof = Prof::Blpp;
    configs[kSwitch] =
        engineVariant(vm::EngineKind::Switch, false, false);
    configs[kFuseNone] =
        engineVariant(vm::EngineKind::Threaded, false, false);
    configs[kFuseTraces] =
        engineVariant(vm::EngineKind::Threaded, true, true);
    configs[kCounted].prof = Prof::Pep;
    configs[kCounted].counted = true;
    if (startup) {
        Config pipeline;
        pipeline.prof = Prof::Pep;
        pipeline.pipeline = true;
        configs.push_back(pipeline);
    }

    Tracer tracer;
    std::unique_ptr<Workload> workload = makeWorkload(options);
    const int setup_span = tracer.begin("setup");
    workload->setup(configs, tracer);
    tracer.end(setup_span);

    const auto rounds =
        measure(*workload, options.seconds, options.tiny ? 1 : 2, report,
                nullptr);
    workload->verify(report);

    auto wall = [&](std::size_t c) {
        return median(
            perRound(rounds, [c](const auto &r) { return r[c].wall; }));
    };
    auto diff = [&](std::size_t a, std::size_t b) {
        return median(perRound(rounds, [a, b](const auto &r) {
            return r[a].wall - r[b].wall;
        }));
    };
    auto nsPer = [&](std::size_t c) {
        return median(perRound(
            rounds, [c](const auto &r) { return nsPerInstr(r[c]); }));
    };

    const Counters counted = meanCounters(rounds, kCounted);
    const Counters pep = meanCounters(rounds, kPep);
    const Counters base = meanCounters(rounds, kBase);
    const auto per = [](double seconds, std::uint64_t n) {
        return n ? seconds / static_cast<double>(n) * 1e9 : 0.0;
    };

    report.metric("vm.dispatch_ns_per_instr", nsPer(kBase), "ns");
    report.metric("vm.switch_ns_per_instr", nsPer(kSwitch), "ns");
    report.metric("vm.fuse_none_ns_per_instr", nsPer(kFuseNone), "ns");
    report.metric("vm.fuse_traces_ns_per_instr", nsPer(kFuseTraces), "ns");
    report.metric("vm.hook_ns_per_edge",
                  per(diff(kEmpty, kBase), counted.edges), "ns");
    report.metric("core.instrument_ns_per_edge",
                  per(diff(kNever, kEmpty), counted.edges), "ns");
    report.metric("core.sample_ns_per_sample",
                  per(diff(kPep, kNever), pep.samplesTaken), "ns");
    report.metric("core.blpp_ns_per_edge",
                  per(diff(kBlpp, kEmpty), counted.edges), "ns");

    // PEP / unprofiled wall time, per operation group (program or
    // client), geometric mean over groups of the per-round medians.
    std::vector<double> group_ratios;
    for (std::size_t g = 0; g < rounds[0][kBase].groupWall.size(); ++g) {
        group_ratios.push_back(
            median(perRound(rounds, [g](const auto &r) {
                return r[kPep].groupWall[g] / r[kBase].groupWall[g];
            })));
    }
    report.metric("core.pep_wall_ratio", geomean(group_ratios), "ratio");

    // The ladder adds up when the rungs, each a median of per-round
    // differences, sum to the PEP run's own median.
    const double rung_sum = wall(kBase) + diff(kEmpty, kBase) +
                            diff(kNever, kEmpty) + diff(kPep, kNever);
    report.metric("trace.ladder_residual_pct",
                  (rung_sum - wall(kPep)) / wall(kPep) * 100.0, "%");
    report.metric("trace.overhead_pct",
                  diff(kCounted, kPep) / wall(kPep) * 100.0, "%");

    report.metric("vm.instructions", static_cast<double>(base.instructions),
                  "count");
    report.metric("vm.edges", static_cast<double>(counted.edges), "count");
    report.metric("vm.yieldpoints", static_cast<double>(counted.yieldpoints),
                  "count");
    report.metric("vm.invocations", static_cast<double>(base.invocations),
                  "count");
    report.metric("vm.compiles", static_cast<double>(pep.compiles),
                  "count");
    report.metric("vm.methods_decoded",
                  static_cast<double>(pep.methodsDecoded), "count");
    report.metric("core.paths_completed",
                  static_cast<double>(pep.pathsCompleted), "count");
    report.metric("core.samples_taken",
                  static_cast<double>(pep.samplesTaken), "count");
    report.metric("core.samples_recorded",
                  static_cast<double>(pep.samplesRecorded), "count");
    report.metric("core.first_time_expansions",
                  static_cast<double>(pep.firstTimeExpansions), "count");

    const LatencyHistogram base_ops = pooledOps(rounds, kBase);
    report.metric("vm.op_p50_us_unprofiled", base_ops.percentile(50.0),
                  "us");
    report.metric("vm.op_p99_us_unprofiled", base_ops.percentile(99.0),
                  "us");

    Counters pipeline;
    if (startup)
        pipeline = meanCounters(rounds, kPipeline);
    report.metric("opt.pipeline_us",
                  pipeline.pipelineRuns
                      ? pipeline.pipelineSeconds /
                            static_cast<double>(pipeline.pipelineRuns) * 1e6
                      : 0.0,
                  "us");
    report.metric("opt.layouts_applied",
                  static_cast<double>(pipeline.layoutsApplied), "count");
    report.metric("opt.clones_applied",
                  static_cast<double>(pipeline.clonesApplied), "count");

    const std::vector<const bytecode::Program *> programs =
        workload->programs();
    report.metric("vm.load_ms", probeLoadMs(programs, tracer), "ms");
    double compile_us = 0.0;
    double translate_us = 0.0;
    probeCompile(programs, tracer, compile_us, translate_us);
    report.metric("vm.compile_us", compile_us, "us");
    report.metric("vm.translate_us", translate_us, "us");
    report.metric("profile.plan_build_us", probePlanBuild(programs, tracer),
                  "us");
    workload->layerProbes(report, tracer);

    std::printf("rounds: %zu over %zu configurations:", rounds.size(),
                configs.size());
    for (const Config &config : configs)
        std::printf(" %s", config.name().c_str());
    std::printf("\n");
    if (!options.traceOut.empty() && !tracer.write(options.traceOut))
        report.check(false, "could not write " + options.traceOut);
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    const Options options = parseOptions(argc, argv);
    if (options.workload.empty())
        usage("--workload is required");

    std::printf("config: engine=threaded fuse=pairs profiler=PEP(%u,%u) "
                "controller=simplified-arnold-grove numbering=smart "
                "dag=header-split k=%u pipeline=%s workload=%s seed=%llu "
                "seconds=%g trace=%d tiny=%d\n",
                kPepSamples, kPepStride, kKIterations,
                options.workload == "startup" ? "layout,clone" : "none",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                options.tiny ? 1 : 0);

    Report report;
    if (options.trace)
        runTraced(options, report);
    else
        runEndToEnd(options, report);
    std::printf("%s\n", report.json().c_str());
    return report.failed() == 0 ? 0 : 1;
}
