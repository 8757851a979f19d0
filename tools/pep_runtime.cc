/**
 * @file
 * pep_runtime: command-line driver for the concurrent profiling
 * runtime (src/runtime/). Three modes:
 *
 *   coop        run a generated request stream under the cooperative
 *               scheduler with K virtual mutator threads and a PEP
 *               profiler; print cycles, switches, and sample counts.
 *               Runs twice and verifies the byte-determinism contract.
 *   throughput  shard the stream over N OS worker threads with all
 *               three aggregation strategies (sharded, mutex, SPSC
 *               ring transport); print requests/second, drop
 *               accounting and window staleness, and verify the
 *               merged profiles match count-for-count (ring must
 *               match whenever its drop count is zero, and its
 *               produced == consumed + dropped conservation law must
 *               hold always).
 *   differ      run one (or all) of the standard multi-threaded
 *               differential configurations from src/testing/differ.
 *
 * Usage:
 *   pep_runtime [--mode coop|throughput|differ] [--threads K]
 *               [--workers N] [--requests R] [--seed S] [--epoch E]
 *               [--config name|all] [--ring-capacity C] [--decay D]
 *               [--inject kind]   (differ mode: fault injection, e.g.
 *                                  ring-lost-sample — must FAIL)
 *
 * Exits nonzero when any invariant check fails.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "runtime/coop_scheduler.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"
#include "testing/differ.hh"
#include "vm/machine.hh"

using namespace pep;

namespace {

struct CliOptions
{
    std::string mode = "coop";
    std::uint32_t threads = 4;
    std::uint32_t workers = 4;
    std::uint32_t requests = 512;
    std::uint64_t seed = 1;
    std::uint32_t epoch = 64;
    std::string config = "all";
    std::uint32_t ringCapacity = 1u << 14;
    double decay = 0.5;
    std::string inject = "none";
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--mode coop|throughput|differ] "
                 "[--threads K] [--workers N] [--requests R] "
                 "[--seed S] [--epoch E] [--config name|all] "
                 "[--ring-capacity C] [--decay D] [--inject kind]\n",
                 argv0);
}

runtime::RequestStream
makeStream(const CliOptions &cli)
{
    runtime::RequestStreamSpec spec;
    spec.seed = cli.seed;
    spec.requests = cli.requests;
    return runtime::RequestStream(spec);
}

vm::SimParams
makeParams(const CliOptions &cli)
{
    vm::SimParams params;
    params.tickCycles = 10'000;
    params.rngSeed = cli.seed ^ 0x7ead5eedull;
    return params;
}

/** Profiles + counters of a cooperative run as one comparable blob. */
std::string
runBlob(const vm::Machine &machine, const core::PepProfiler &pep,
        const runtime::CoopStats &stats)
{
    std::ostringstream os;
    for (const auto &method : machine.truthEdges().perMethod)
        for (const auto &per_block : method.counts())
            for (std::uint64_t count : per_block)
                os << count << ' ';
    for (const auto &method : pep.edgeProfile().perMethod)
        for (const auto &per_block : method.counts())
            for (std::uint64_t count : per_block)
                os << count << ' ';
    for (const auto &[key, vp] : pep.versionProfiles()) {
        std::map<std::uint64_t, std::uint64_t> ordered;
        for (const auto &[number, record] : vp->paths.paths())
            ordered[number] = record.count;
        for (const auto &[number, count] : ordered)
            os << number << '=' << count << ' ';
    }
    os << stats.contextSwitches << ' ' << machine.now();
    return os.str();
}

int
runCoop(const CliOptions &cli)
{
    const runtime::RequestStream stream = makeStream(cli);
    const vm::SimParams params = makeParams(cli);

    std::string first;
    for (int run = 0; run < 2; ++run) {
        vm::Machine machine(stream.program(), params);
        core::SimplifiedArnoldGrove controller(64, 17);
        core::PepProfiler pep(machine, controller);
        machine.addHooks(&pep);
        machine.addCompileObserver(&pep);

        runtime::CoopOptions coop;
        coop.threads = cli.threads;
        coop.seed = cli.seed;
        runtime::CoopScheduler scheduler(machine, coop);
        scheduler.assignRoundRobin(stream);
        scheduler.run();

        const runtime::CoopStats &stats = scheduler.stats();
        if (stats.requestsCompleted != stream.requests().size()) {
            std::fprintf(stderr,
                         "pep_runtime: completed %llu of %zu "
                         "requests\n",
                         static_cast<unsigned long long>(
                             stats.requestsCompleted),
                         stream.requests().size());
            return 1;
        }
        if (run == 0) {
            std::printf(
                "coop: K=%u requests=%zu cycles=%llu switches=%llu "
                "resumes=%llu samples=%llu engine=%s decoded=%llu\n",
                cli.threads, stream.requests().size(),
                static_cast<unsigned long long>(machine.now()),
                static_cast<unsigned long long>(
                    stats.contextSwitches),
                static_cast<unsigned long long>(stats.resumes),
                static_cast<unsigned long long>(
                    pep.pepStats().samplesRecorded),
                vm::engineKindName(machine.params().engine),
                static_cast<unsigned long long>(
                    machine.stats().methodsDecoded));
            first = runBlob(machine, pep, stats);
        } else if (runBlob(machine, pep, stats) != first) {
            std::fprintf(stderr,
                         "pep_runtime: NON-DETERMINISTIC — repeat "
                         "run diverged from the first\n");
            return 1;
        }
    }
    std::printf("coop: repeat run byte-identical\n");
    return 0;
}

bool
profilesIdentical(const runtime::ThroughputResult &a,
                  const runtime::ThroughputResult &b)
{
    if (a.paths != b.paths ||
        a.edges.perMethod.size() != b.edges.perMethod.size())
        return false;
    for (std::size_t m = 0; m < a.edges.perMethod.size(); ++m)
        if (a.edges.perMethod[m].counts() !=
            b.edges.perMethod[m].counts())
            return false;
    return true;
}

int
runThroughputMode(const CliOptions &cli)
{
    const runtime::RequestStream stream = makeStream(cli);

    runtime::ThroughputOptions options;
    options.workers = cli.workers;
    options.epochRequests = cli.epoch;
    options.params = makeParams(cli);
    options.ring.capacity = cli.ringCapacity;
    options.ring.windowDecay = cli.decay;

    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult sharded =
        runtime::runThroughput(stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult mutex_global =
        runtime::runThroughput(stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Ring;
    const runtime::ThroughputResult ring =
        runtime::runThroughput(stream, options);

    std::printf("throughput: workers=%u requests=%zu epoch=%u\n",
                cli.workers, stream.requests().size(), cli.epoch);
    std::printf("  sharded: %9.0f req/s (%llu path records, "
                "%llu flushes)\n",
                sharded.requestsPerSecond,
                static_cast<unsigned long long>(sharded.pathRecords),
                static_cast<unsigned long long>(sharded.shardFlushes));
    std::printf("  mutex:   %9.0f req/s (%llu path records)\n",
                mutex_global.requestsPerSecond,
                static_cast<unsigned long long>(
                    mutex_global.pathRecords));
    std::printf("  ring:    %9.0f req/s (capacity=%u produced=%llu "
                "consumed=%llu dropped=%llu drop-rate=%.4f%%)\n",
                ring.requestsPerSecond, cli.ringCapacity,
                static_cast<unsigned long long>(
                    ring.transport.produced),
                static_cast<unsigned long long>(
                    ring.transport.consumed),
                static_cast<unsigned long long>(
                    ring.transport.dropped),
                100.0 * ring.transport.dropRate());
    std::printf("  ring window: advances=%llu staleness=%.3f epochs "
                "(decay=%.2f)\n",
                static_cast<unsigned long long>(ring.windowAdvances),
                ring.windowStalenessEpochs, cli.decay);

    bool ok = true;
    if (!profilesIdentical(sharded, mutex_global)) {
        std::printf("  sharded vs mutex profiles DIVERGE\n");
        ok = false;
    }
    if (ring.transport.produced !=
        ring.transport.consumed + ring.transport.dropped) {
        std::printf("  ring conservation VIOLATED: produced != "
                    "consumed + dropped\n");
        ok = false;
    }
    if (ring.transport.dropped == 0) {
        if (!profilesIdentical(ring, mutex_global)) {
            std::printf("  ring (drop-free) vs mutex profiles "
                        "DIVERGE\n");
            ok = false;
        } else {
            std::printf("  merged profiles identical (ring "
                        "drop-free)\n");
        }
    } else {
        std::printf("  merged profiles identical (sharded vs mutex); "
                    "ring dropped %llu samples (not compared)\n",
                    static_cast<unsigned long long>(
                        ring.transport.dropped));
    }
    return ok ? 0 : 1;
}

int
runDifferMode(const CliOptions &cli)
{
    testing::InjectKind inject = testing::InjectKind::None;
    if (!testing::parseInjectKind(cli.inject, inject)) {
        std::fprintf(stderr, "pep_runtime: unknown --inject '%s'\n",
                     cli.inject.c_str());
        return 2;
    }
    int failures = 0;
    for (testing::ThreadedDiffOptions config :
         testing::standardThreadedConfigs()) {
        if (cli.config != "all" && cli.config != config.name)
            continue;
        config.inject = inject;
        const testing::DiffReport report =
            testing::runThreadedDiff(config);
        std::printf("differ: %-24s %s (segments=%llu samples=%llu)\n",
                    config.name.c_str(),
                    report.ok() ? "clean" : "VIOLATIONS",
                    static_cast<unsigned long long>(
                        report.oracleSegments),
                    static_cast<unsigned long long>(
                        report.pepSamplesRecorded));
        for (const std::string &violation : report.violations)
            std::printf("    %s\n", violation.c_str());
        failures += report.ok() ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--mode") {
            cli.mode = next();
        } else if (arg == "--threads") {
            cli.threads = std::strtoul(next(), nullptr, 10);
        } else if (arg == "--workers") {
            cli.workers = std::strtoul(next(), nullptr, 10);
        } else if (arg == "--requests") {
            cli.requests = std::strtoul(next(), nullptr, 10);
        } else if (arg == "--seed") {
            cli.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--epoch") {
            cli.epoch = std::strtoul(next(), nullptr, 10);
        } else if (arg == "--config") {
            cli.config = next();
        } else if (arg == "--ring-capacity") {
            cli.ringCapacity = std::strtoul(next(), nullptr, 10);
        } else if (arg == "--decay") {
            cli.decay = std::atof(next());
        } else if (arg == "--inject") {
            cli.inject = next();
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (cli.mode == "coop")
        return runCoop(cli);
    if (cli.mode == "throughput")
        return runThroughputMode(cli);
    if (cli.mode == "differ")
        return runDifferMode(cli);
    usage(argv[0]);
    return 2;
}
