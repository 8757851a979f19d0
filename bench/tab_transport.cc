/**
 * @file
 * Sample-transport table: the SPSC ring pipeline under sustained load,
 * emitted as BENCH_PR7.json. Four measurements:
 *
 *   1. sustained run — a million-request stream (PEP_BENCH_SCALE
 *      scales it down) sharded over >= 16 OS workers recording through
 *      the ring transport: requests/second, drop accounting (the
 *      conservation law produced == consumed + dropped is a hard
 *      failure), windowed-profile staleness, and memory flatness (peak
 *      RSS after a short warm-up run vs. after the full run — a
 *      transport whose footprint grows with request count fails the
 *      point of bounded rings and pruned windows);
 *   2. drop rate vs. ring capacity — the same workload swept across
 *      ring sizes: how much capacity buys how much fidelity;
 *   3. aggregation comparison — ring vs. sharded vs. mutex
 *      requests/second at the sustained worker count;
 *   4. drop-free identity — at a scale where the ample ring provably
 *      cannot fill, the ring totals must match mutex (and sharded)
 *      count for count; divergence is a hard failure.
 *
 * Usage: tab_transport [output.json]   (default BENCH_PR7.json)
 * PEP_BENCH_SCALE scales the request counts.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"

using namespace pep;

namespace {

/** Peak resident set (VmHWM) in kB; 0 where /proc is unavailable.
 *  The peak — not the current RSS — is what a leaky transport moves. */
std::uint64_t
peakRssKb()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtoull(line + 6, nullptr, 10);
            break;
        }
    }
    std::fclose(status);
    return kb;
}

struct SweepRow
{
    std::uint32_t capacity = 0;
    double requestsPerSecond = 0.0;
    double dropRate = 0.0;
    std::uint64_t consumed = 0;
    double stalenessEpochs = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_PR7.json";
    const double scale = bench::benchScale();

    const std::uint32_t workers = std::max<std::uint32_t>(
        16, std::thread::hardware_concurrency());
    const auto sustained_requests = std::max<std::uint32_t>(
        8192, static_cast<std::uint32_t>(1'000'000 * scale));

    vm::SimParams params = bench::defaultParams();
    params.tickCycles = 10'000;
    params.rngSeed = 701 ^ 0x7ead5eedull;

    runtime::RequestStreamSpec spec;
    spec.seed = 701;
    spec.requests = sustained_requests;
    const runtime::RequestStream stream(spec);

    runtime::ThroughputOptions options;
    options.workers = workers;
    options.epochRequests = 64;
    options.params = params;
    options.aggregation = runtime::ThroughputOptions::Aggregation::Ring;
    options.ring.capacity = 1u << 14;

    bool ok = true;
    const auto checkConservation =
        [&ok](const runtime::ThroughputResult &result,
              const char *label) {
            if (result.transport.produced !=
                result.transport.consumed + result.transport.dropped) {
                std::printf("  %s: conservation VIOLATED — produced "
                            "%llu != consumed %llu + dropped %llu\n",
                            label,
                            static_cast<unsigned long long>(
                                result.transport.produced),
                            static_cast<unsigned long long>(
                                result.transport.consumed),
                            static_cast<unsigned long long>(
                                result.transport.dropped));
                ok = false;
            }
        };

    // ---- sustained run ----------------------------------------------
    // Warm-up at 1/8 scale pins the high-water mark a bounded
    // transport should already be near; the full run then must not
    // move it by much (rings are fixed arrays, windows are pruned —
    // only path-total tables may still creep toward their bounded
    // universe of distinct paths).
    std::printf("tab_transport: %u requests over %u workers "
                "(ring capacity %u)...\n",
                sustained_requests, workers, options.ring.capacity);
    runtime::RequestStreamSpec warm_spec = spec;
    warm_spec.requests = std::max<std::uint32_t>(
        1024, sustained_requests / 8);
    {
        const runtime::RequestStream warm(warm_spec);
        (void)runtime::runThroughput(warm, options);
    }
    const std::uint64_t rss_warm_kb = peakRssKb();

    const runtime::ThroughputResult sustained =
        runtime::runThroughput(stream, options);
    const std::uint64_t rss_after_kb = peakRssKb();
    const std::int64_t rss_growth_kb =
        static_cast<std::int64_t>(rss_after_kb) -
        static_cast<std::int64_t>(rss_warm_kb);
    checkConservation(sustained, "sustained");
    if (sustained.requestsCompleted != sustained_requests) {
        std::printf("  sustained: completed %llu of %u requests\n",
                    static_cast<unsigned long long>(
                        sustained.requestsCompleted),
                    sustained_requests);
        ok = false;
    }
    std::printf("  sustained: %9.0f req/s  drop-rate %.4f%%  "
                "staleness %.3f epochs  rss %llu -> %llu kB "
                "(%+lld kB)\n",
                sustained.requestsPerSecond,
                100.0 * sustained.transport.dropRate(),
                sustained.windowStalenessEpochs,
                static_cast<unsigned long long>(rss_warm_kb),
                static_cast<unsigned long long>(rss_after_kb),
                static_cast<long long>(rss_growth_kb));

    // ---- drop rate vs ring capacity ---------------------------------
    const std::uint32_t sweep_capacities[] = {
        1u << 8, 1u << 10, 1u << 12, 1u << 14, 1u << 16};
    runtime::RequestStreamSpec sweep_spec = spec;
    sweep_spec.requests = std::max<std::uint32_t>(
        2048, sustained_requests / 8);
    const runtime::RequestStream sweep_stream(sweep_spec);
    std::vector<SweepRow> sweep;
    std::printf("tab_transport: capacity sweep (%u requests)...\n",
                sweep_spec.requests);
    for (const std::uint32_t capacity : sweep_capacities) {
        options.ring.capacity = capacity;
        const runtime::ThroughputResult result =
            runtime::runThroughput(sweep_stream, options);
        checkConservation(result, "sweep");
        SweepRow row;
        row.capacity = capacity;
        row.requestsPerSecond = result.requestsPerSecond;
        row.dropRate = result.transport.dropRate();
        row.consumed = result.transport.consumed;
        row.stalenessEpochs = result.windowStalenessEpochs;
        sweep.push_back(row);
        std::printf("  capacity %6u  %9.0f req/s  drop-rate %7.4f%%\n",
                    capacity, row.requestsPerSecond,
                    100.0 * row.dropRate);
    }
    options.ring.capacity = 1u << 14;

    // ---- aggregation comparison -------------------------------------
    runtime::RequestStreamSpec agg_spec = spec;
    agg_spec.requests = std::max<std::uint32_t>(
        2048, sustained_requests / 8);
    const runtime::RequestStream agg_stream(agg_spec);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult sharded =
        runtime::runThroughput(agg_stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult mutex_global =
        runtime::runThroughput(agg_stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Ring;
    const runtime::ThroughputResult ring_agg =
        runtime::runThroughput(agg_stream, options);
    checkConservation(ring_agg, "aggregation");
    std::printf("tab_transport: ring %9.0f vs sharded %9.0f vs "
                "mutex %9.0f req/s\n",
                ring_agg.requestsPerSecond, sharded.requestsPerSecond,
                mutex_global.requestsPerSecond);

    // ---- drop-free identity -----------------------------------------
    // Small enough that each worker's whole record volume fits in the
    // ample ring even if the collector never runs mid-production: the
    // merged totals must equal the synchronous baselines exactly.
    runtime::RequestStreamSpec id_spec = spec;
    id_spec.requests = 4096;
    const runtime::RequestStream id_stream(id_spec);
    runtime::ThroughputOptions id_options = options;
    id_options.ring.capacity = 1u << 17;
    id_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Ring;
    const runtime::ThroughputResult id_ring =
        runtime::runThroughput(id_stream, id_options);
    id_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult id_mutex =
        runtime::runThroughput(id_stream, id_options);
    id_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult id_sharded =
        runtime::runThroughput(id_stream, id_options);
    checkConservation(id_ring, "identity");

    const bool drop_free = id_ring.transport.dropped == 0;
    const bool ring_matches =
        drop_free && id_ring.edges == id_mutex.edges &&
        id_ring.paths == id_mutex.paths;
    const bool sharded_matches =
        id_sharded.edges == id_mutex.edges &&
        id_sharded.paths == id_mutex.paths;
    std::printf("tab_transport: identity at %u requests — ring "
                "dropped %llu, ring %s, sharded %s\n",
                id_spec.requests,
                static_cast<unsigned long long>(
                    id_ring.transport.dropped),
                ring_matches ? "matches mutex" : "DIVERGES",
                sharded_matches ? "matches mutex" : "DIVERGES");
    if (!drop_free || !ring_matches || !sharded_matches)
        ok = false;

    // ---- JSON -------------------------------------------------------
    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "tab_transport: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"sustained\": {\n");
    std::fprintf(json, "    \"workers\": %u,\n", workers);
    std::fprintf(json, "    \"requests\": %u,\n", sustained_requests);
    std::fprintf(json, "    \"ring_capacity\": %u,\n", 1u << 14);
    std::fprintf(json, "    \"window_decay\": %.2f,\n",
                 runtime::kWindowDecay);
    std::fprintf(json, "    \"wall_seconds\": %.6f,\n",
                 sustained.wallSeconds);
    std::fprintf(json, "    \"requests_per_sec\": %.1f,\n",
                 sustained.requestsPerSecond);
    std::fprintf(json, "    \"produced\": %llu,\n",
                 static_cast<unsigned long long>(
                     sustained.transport.produced));
    std::fprintf(json, "    \"consumed\": %llu,\n",
                 static_cast<unsigned long long>(
                     sustained.transport.consumed));
    std::fprintf(json, "    \"dropped\": %llu,\n",
                 static_cast<unsigned long long>(
                     sustained.transport.dropped));
    std::fprintf(json, "    \"drop_rate\": %.6f,\n",
                 sustained.transport.dropRate());
    std::fprintf(json, "    \"epoch_marks\": %llu,\n",
                 static_cast<unsigned long long>(
                     sustained.transport.epochMarks));
    std::fprintf(json, "    \"window_advances\": %llu,\n",
                 static_cast<unsigned long long>(
                     sustained.windowAdvances));
    std::fprintf(json, "    \"window_staleness_epochs\": %.6f,\n",
                 sustained.windowStalenessEpochs);
    std::fprintf(json, "    \"window_mass\": %.1f,\n",
                 sustained.windowMass);
    std::fprintf(json, "    \"peak_rss_warm_kb\": %llu,\n",
                 static_cast<unsigned long long>(rss_warm_kb));
    std::fprintf(json, "    \"peak_rss_after_kb\": %llu,\n",
                 static_cast<unsigned long long>(rss_after_kb));
    std::fprintf(json, "    \"peak_rss_growth_kb\": %lld\n",
                 static_cast<long long>(rss_growth_kb));
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"capacity_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepRow &row = sweep[i];
        std::fprintf(json,
                     "    {\"capacity\": %u, "
                     "\"requests_per_sec\": %.1f, "
                     "\"drop_rate\": %.6f, "
                     "\"consumed\": %llu, "
                     "\"window_staleness_epochs\": %.6f}%s\n",
                     row.capacity, row.requestsPerSecond, row.dropRate,
                     static_cast<unsigned long long>(row.consumed),
                     row.stalenessEpochs,
                     i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"aggregation\": {\n");
    std::fprintf(json, "    \"workers\": %u,\n", workers);
    std::fprintf(json, "    \"ring_requests_per_sec\": %.1f,\n",
                 ring_agg.requestsPerSecond);
    std::fprintf(json, "    \"sharded_requests_per_sec\": %.1f,\n",
                 sharded.requestsPerSecond);
    std::fprintf(json, "    \"mutex_requests_per_sec\": %.1f,\n",
                 mutex_global.requestsPerSecond);
    std::fprintf(json, "    \"ring_drop_rate\": %.6f\n",
                 ring_agg.transport.dropRate());
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"identity\": {\n");
    std::fprintf(json, "    \"requests\": %u,\n", id_spec.requests);
    std::fprintf(json, "    \"ring_dropped\": %llu,\n",
                 static_cast<unsigned long long>(
                     id_ring.transport.dropped));
    std::fprintf(json, "    \"ring_matches_mutex\": %s,\n",
                 ring_matches ? "true" : "false");
    std::fprintf(json, "    \"sharded_matches_mutex\": %s\n",
                 sharded_matches ? "true" : "false");
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"conservation_ok\": %s\n",
                 ok ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("tab_transport: wrote %s\n", json_path.c_str());

    return ok ? 0 : 1;
}
