/**
 * @file
 * Concurrency table: profiling under the concurrent runtime, emitted
 * as BENCH_PR4.json. Three measurements:
 *
 *   1. cooperative scaling — a request stream run under the
 *      cooperative scheduler with K = 1, 2, 4, 8 virtual mutator
 *      threads: PEP overhead (simulated cycles with the profiler
 *      attached vs. a bare run of the same interleaving) and
 *      edge-profile accuracy (relative / absolute overlap of PEP's
 *      continuous profile against the run's own ground truth),
 *      compared against the K = 1 baseline. Each PEP run executes
 *      twice and must serialize byte-identically (testing::serializeRun
 *      with the PEP and the scheduler's CoopStats: the determinism
 *      contract of docs/RUNTIME.md);
 *   2. throughput worker scaling — the same stream sharded over
 *      1..N OS worker threads with the sharded, cache-line-padded
 *      aggregator: requests/second per worker count;
 *   3. sharded vs. mutex-global aggregation at N workers — the
 *      throughput ratio, plus a count-for-count identity check of the
 *      merged edge and path profiles (divergence is a hard failure) —
 *      and a ring-transport row (requests/second, drop rate, and the
 *      produced == consumed + dropped conservation law, also a hard
 *      failure; tab_transport / BENCH_PR7.json measures the ring in
 *      depth).
 *
 * Usage: tab_concurrency [output.json]   (default BENCH_PR4.json)
 * PEP_BENCH_SCALE scales the request count.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/overlap.hh"
#include "runtime/coop_scheduler.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"
#include "testing/observables.hh"
#include "vm/machine.hh"

using namespace pep;

namespace {

struct CoopRow
{
    std::uint32_t threads = 1;
    std::uint64_t baseCycles = 0;
    std::uint64_t pepCycles = 0;
    double overhead = 0.0; // (pep - base) / base
    double relativeOverlap = 0.0;
    double absoluteOverlap = 0.0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t samplesRecorded = 0;
    bool deterministic = false;
};

CoopRow
runCoopCell(const runtime::RequestStream &stream,
            const vm::SimParams &params, std::uint32_t threads)
{
    CoopRow row;
    row.threads = threads;

    const auto drive = [&](vm::Machine &machine) {
        runtime::CoopOptions coop;
        coop.threads = threads;
        coop.seed = stream.spec().seed;
        runtime::CoopScheduler scheduler(machine, coop);
        scheduler.assignRoundRobin(stream);
        scheduler.run();
        if (scheduler.stats().requestsCompleted !=
            stream.requests().size()) {
            std::fprintf(stderr,
                         "tab_concurrency: K=%u completed %llu of "
                         "%zu requests\n",
                         threads,
                         static_cast<unsigned long long>(
                             scheduler.stats().requestsCompleted),
                         stream.requests().size());
            std::exit(1);
        }
        return scheduler.stats();
    };

    // Bare run: the same interleaving with no profiler attached gives
    // the cost baseline for this K.
    {
        vm::Machine machine(stream.program(), params);
        drive(machine);
        row.baseCycles = machine.now();
    }

    // PEP run, twice: overhead + accuracy from the first, determinism
    // from byte-comparing the second against it.
    std::string first_blob;
    for (int run = 0; run < 2; ++run) {
        vm::Machine machine(stream.program(), params);
        core::SimplifiedArnoldGrove controller(64, 17);
        core::PepProfiler pep(machine, controller);
        machine.addHooks(&pep);
        machine.addCompileObserver(&pep);
        const runtime::CoopStats stats = drive(machine);
        const std::string blob = testing::serializeRun(
            machine, {.peps = {&pep}, .coop = &stats});

        if (run == 0) {
            row.pepCycles = machine.now();
            row.overhead =
                row.baseCycles > 0
                    ? (static_cast<double>(row.pepCycles) -
                       static_cast<double>(row.baseCycles)) /
                          static_cast<double>(row.baseCycles)
                    : 0.0;
            const std::vector<bytecode::MethodCfg> cfgs =
                bench::allCfgs(machine);
            row.relativeOverlap = metrics::relativeOverlap(
                cfgs, machine.truthEdges(), pep.edgeProfile());
            row.absoluteOverlap = metrics::absoluteOverlap(
                machine.truthEdges(), pep.edgeProfile());
            row.contextSwitches = stats.contextSwitches;
            row.samplesRecorded = pep.pepStats().samplesRecorded;
            first_blob = blob;
        } else {
            row.deterministic = blob == first_blob;
        }
    }
    return row;
}

struct ThroughputRow
{
    std::uint32_t workers = 1;
    double wallSeconds = 0.0;
    double requestsPerSecond = 0.0;
    std::uint64_t pathRecords = 0;
    std::uint64_t flushedEdgeCount = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_PR4.json";

    runtime::RequestStreamSpec spec;
    spec.seed = 401;
    spec.requests = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(4096 * bench::benchScale()));
    const runtime::RequestStream stream(spec);

    vm::SimParams params = bench::defaultParams();
    // Short tick period relative to a request's length, so the timer
    // actually drives context switches and sampling on this stream.
    params.tickCycles = 10'000;
    params.rngSeed = spec.seed ^ 0x7ead5eedull;

    // ---- cooperative scaling ----------------------------------------
    std::printf("tab_concurrency: %u requests, cooperative runs...\n",
                spec.requests);
    const std::uint32_t kValues[] = {1, 2, 4, 8};
    std::vector<CoopRow> coop;
    bool all_deterministic = true;
    for (const std::uint32_t k : kValues) {
        coop.push_back(runCoopCell(stream, params, k));
        const CoopRow &row = coop.back();
        all_deterministic = all_deterministic && row.deterministic;
        std::printf("  K=%u  base %10llu  pep %10llu  overhead %6s  "
                    "rel %.4f  abs %.4f  switches %6llu  %s\n",
                    row.threads,
                    static_cast<unsigned long long>(row.baseCycles),
                    static_cast<unsigned long long>(row.pepCycles),
                    bench::pct(row.overhead).c_str(),
                    row.relativeOverlap, row.absoluteOverlap,
                    static_cast<unsigned long long>(
                        row.contextSwitches),
                    row.deterministic ? "deterministic"
                                      : "NON-DETERMINISTIC");
    }

    // ---- throughput worker scaling ----------------------------------
    const std::uint32_t max_workers = std::clamp(
        std::thread::hardware_concurrency(), 2u, 8u);
    std::printf("tab_concurrency: throughput scaling to %u "
                "workers...\n",
                max_workers);
    runtime::ThroughputOptions t_options;
    t_options.epochRequests = 64;
    t_options.params = params;

    std::vector<ThroughputRow> scaling;
    for (std::uint32_t w = 1; w <= max_workers; ++w) {
        t_options.workers = w;
        t_options.aggregation =
            runtime::ThroughputOptions::Aggregation::Sharded;
        const runtime::ThroughputResult r =
            runtime::runThroughput(stream, t_options);
        ThroughputRow row;
        row.workers = w;
        row.wallSeconds = r.wallSeconds;
        row.requestsPerSecond = r.requestsPerSecond;
        row.pathRecords = r.pathRecords;
        row.flushedEdgeCount = r.edges.totalCount();
        scaling.push_back(row);
        std::printf("  workers=%u  %9.0f req/s  (%.4f s wall)\n", w,
                    row.requestsPerSecond, row.wallSeconds);
    }

    // ---- sharded vs mutex at max workers ----------------------------
    t_options.workers = max_workers;
    t_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult sharded =
        runtime::runThroughput(stream, t_options);
    t_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult mutex_global =
        runtime::runThroughput(stream, t_options);
    t_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Ring;
    const runtime::ThroughputResult ring =
        runtime::runThroughput(stream, t_options);

    const bool identical =
        sharded.edges == mutex_global.edges &&
        sharded.paths == mutex_global.paths;
    // The ring transport's own invariant: every sample offered is
    // either applied or counted as dropped (see docs/RUNTIME.md).
    const bool ring_conserved =
        ring.transport.produced ==
        ring.transport.consumed + ring.transport.dropped;
    const double agg_speedup =
        mutex_global.requestsPerSecond > 0.0
            ? sharded.requestsPerSecond /
                  mutex_global.requestsPerSecond
            : 0.0;
    std::printf("  sharded %9.0f req/s vs mutex %9.0f req/s "
                "(%.2fx), profiles %s\n",
                sharded.requestsPerSecond,
                mutex_global.requestsPerSecond, agg_speedup,
                identical ? "identical" : "DIVERGE");
    std::printf("  ring    %9.0f req/s (drop-rate %.4f%%, "
                "conservation %s)\n",
                ring.requestsPerSecond,
                100.0 * ring.transport.dropRate(),
                ring_conserved ? "ok" : "VIOLATED");

    // ---- JSON -------------------------------------------------------
    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "tab_concurrency: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"requests\": %u,\n", spec.requests);
    std::fprintf(json, "  \"coop\": [\n");
    for (std::size_t i = 0; i < coop.size(); ++i) {
        const CoopRow &row = coop[i];
        std::fprintf(json,
                     "    {\"virtual_threads\": %u, "
                     "\"base_cycles\": %llu, "
                     "\"pep_cycles\": %llu, "
                     "\"overhead\": %.6f, "
                     "\"relative_overlap\": %.6f, "
                     "\"absolute_overlap\": %.6f, "
                     "\"context_switches\": %llu, "
                     "\"samples_recorded\": %llu, "
                     "\"deterministic\": %s}%s\n",
                     row.threads,
                     static_cast<unsigned long long>(row.baseCycles),
                     static_cast<unsigned long long>(row.pepCycles),
                     row.overhead, row.relativeOverlap,
                     row.absoluteOverlap,
                     static_cast<unsigned long long>(
                         row.contextSwitches),
                     static_cast<unsigned long long>(
                         row.samplesRecorded),
                     row.deterministic ? "true" : "false",
                     i + 1 < coop.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"throughput_scaling\": [\n");
    for (std::size_t i = 0; i < scaling.size(); ++i) {
        const ThroughputRow &row = scaling[i];
        std::fprintf(json,
                     "    {\"workers\": %u, "
                     "\"wall_seconds\": %.6f, "
                     "\"requests_per_sec\": %.1f, "
                     "\"path_records\": %llu, "
                     "\"edge_count\": %llu}%s\n",
                     row.workers, row.wallSeconds,
                     row.requestsPerSecond,
                     static_cast<unsigned long long>(row.pathRecords),
                     static_cast<unsigned long long>(
                         row.flushedEdgeCount),
                     i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"aggregation\": {\n");
    std::fprintf(json, "    \"workers\": %u,\n", max_workers);
    std::fprintf(json, "    \"sharded_requests_per_sec\": %.1f,\n",
                 sharded.requestsPerSecond);
    std::fprintf(json, "    \"mutex_requests_per_sec\": %.1f,\n",
                 mutex_global.requestsPerSecond);
    std::fprintf(json, "    \"sharded_speedup\": %.4f,\n",
                 agg_speedup);
    std::fprintf(json, "    \"profiles_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(json, "    \"ring_requests_per_sec\": %.1f,\n",
                 ring.requestsPerSecond);
    std::fprintf(json, "    \"ring_drop_rate\": %.6f,\n",
                 ring.transport.dropRate());
    std::fprintf(json, "    \"ring_window_staleness_epochs\": %.6f,\n",
                 ring.windowStalenessEpochs);
    std::fprintf(json, "    \"ring_conservation_ok\": %s\n",
                 ring_conserved ? "true" : "false");
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"coop_deterministic\": %s\n",
                 all_deterministic ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("tab_concurrency: wrote %s\n", json_path.c_str());

    return (identical && ring_conserved && all_deterministic) ? 0 : 1;
}
