/**
 * @file
 * Section 3.4 ablation: the effect of instrumentation placement on
 * PEP's execution overhead. Smart path numbering zeroes the hottest
 * outgoing edge of every block (no instrumentation there); plain
 * Ball-Larus numbering ignores frequency; inverted smart numbering
 * deliberately zeroes the *coldest* edge, putting instrumentation on
 * hot edges.
 *
 * Paper headline: hot-edge placement raises instrumentation overhead
 * from 1.1% to 2.5% (a modest 1.4% — PEP's low overhead comes mainly
 * from the instrumentation/sampling split, not placement).
 *
 * Beside the simulated overhead, the bench prints the wall time per
 * guest instruction on the threaded engine, where the path register
 * runs inline (docs/ENGINE.md): the median and quartiles of the
 * measured iteration and four more, so whether the cold-vs-hot
 * ordering also holds in wall time beyond the spread can be read off.
 * The cells run in parallel, one workload per worker
 * (PEP_BENCH_THREADS=1 measures serially); the wall columns are a
 * report, not a gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "common/harness.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace pep;

namespace {

/** Wall-timed iterations per cell; the first is also the one whose
 *  simulated cycles the overhead table reports. */
constexpr int kWallIterations = 5;

/** Quantile `q` of `values`, interpolating between order statistics. */
double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

/** The measured replay iteration's simulated cycles, and the wall ns
 *  per guest instruction of it and the further wall iterations. */
struct Measured
{
    double cycles = 0.0;
    std::vector<double> nsPerInstr;
};

Measured
measure(bench::ReplayRun &run)
{
    run.runCompileIteration();
    run.clearCollectedProfiles();
    Measured measured;
    for (int it = 0; it < kWallIterations; ++it) {
        const std::uint64_t instructions =
            run.machine().stats().instructionsExecuted;
        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t cycles = run.runMeasuredIteration();
        const std::chrono::duration<double, std::nano> wall =
            std::chrono::steady_clock::now() - start;
        if (it == 0)
            measured.cycles = static_cast<double>(cycles);
        measured.nsPerInstr.push_back(
            wall.count() /
            static_cast<double>(run.machine().stats().instructionsExecuted -
                                instructions));
    }
    return measured;
}

} // namespace

int
main()
{
    struct Config
    {
        std::string label;
        profile::NumberingScheme scheme;
        profile::PlacementKind placement =
            profile::PlacementKind::Direct;
    };
    const std::vector<Config> configs = {
        {"smart(cold)", profile::NumberingScheme::Smart},
        {"ball-larus", profile::NumberingScheme::BallLarus},
        {"inverted(hot)", profile::NumberingScheme::SmartInverted},
        // Ball-Larus event counting: increments only on the chords of
        // a max-frequency spanning tree (the classic alternative to
        // smart numbering's zero-on-hot-edges placement).
        {"spanning-tree", profile::NumberingScheme::BallLarus,
         profile::PlacementKind::SpanningTree},
    };
    // Simulated cycles are engine-independent; the wall columns want
    // the engine that runs the register inline.
    vm::SimParams params = bench::defaultParams();
    params.engine = vm::EngineKind::Threaded;

    support::Table table;
    support::Table wall_table;
    {
        std::vector<std::string> header = {"benchmark"};
        for (const Config &config : configs)
            header.push_back(config.label);
        table.header(header);
        header.insert(header.begin() + 1, "none");
        wall_table.header(std::move(header));
    }

    std::vector<std::vector<double>> ratios(configs.size());
    std::vector<std::vector<double>> wall_ns(configs.size() + 1);

    struct BenchRow
    {
        std::vector<std::string> cells;
        std::vector<double> ratios;
        /** Per wall iteration: none, then each config. */
        std::vector<std::vector<double>> nsPerInstr;
    };
    const std::vector<BenchRow> rows = bench::mapSuite(
        bench::benchSuite(),
        [&](const workload::WorkloadSpec &spec) {
            const bench::Prepared prepared =
                bench::prepare(spec, params);

            bench::ReplayRun base_run(prepared, params);
            const Measured base = measure(base_run);

            BenchRow result;
            result.cells = {spec.name};
            result.nsPerInstr = {base.nsPerInstr};
            for (const Config &config : configs) {
                bench::ReplayRun run(prepared, params);
                core::PepOptions options;
                options.scheme = config.scheme;
                options.placement = config.placement;
                run.attachPep(std::make_unique<core::NeverSample>(),
                              options);
                const Measured measured = measure(run);
                result.ratios.push_back(measured.cycles / base.cycles);
                result.cells.push_back(
                    bench::overheadPct(measured.cycles / base.cycles));
                result.nsPerInstr.push_back(measured.nsPerInstr);
            }
            return result;
        });
    const auto ns_cell = [](double ns) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.2f", ns);
        return std::string(buf);
    };
    const auto spread_cell = [](const std::vector<double> &ns) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2f [%.2f-%.2f]",
                      quantile(ns, 0.5), quantile(ns, 0.25),
                      quantile(ns, 0.75));
        return std::string(buf);
    };
    for (const BenchRow &result : rows) {
        for (std::size_t c = 0; c < configs.size(); ++c)
            ratios[c].push_back(result.ratios[c]);
        table.row(std::vector<std::string>(result.cells));
        std::vector<std::string> wall_row = {result.cells.front()};
        for (std::size_t c = 0; c < result.nsPerInstr.size(); ++c) {
            wall_ns[c].push_back(quantile(result.nsPerInstr[c], 0.5));
            wall_row.push_back(spread_cell(result.nsPerInstr[c]));
        }
        wall_table.row(std::move(wall_row));
    }

    table.separator();
    {
        std::vector<std::string> avg = {"average"};
        for (auto &r : ratios)
            avg.push_back(bench::overheadPct(support::mean(r)));
        table.row(std::move(avg));
    }
    wall_table.separator();
    {
        std::vector<std::string> geo = {"geomean"};
        for (const std::vector<double> &ns : wall_ns)
            geo.push_back(ns_cell(support::geomean(ns)));
        wall_table.row(std::move(geo));
    }

    std::printf("Section 3.4: instrumentation placement ablation "
                "(PEP instrumentation only, no sampling)\n\n");
    std::printf("%s\n", table.str().c_str());
    std::printf("wall ns per guest instruction, median [q1-q3] of %d "
                "measured iterations, threaded engine (report only; "
                "geomean of medians)\n\n",
                kWallIterations);
    std::printf("%s\n", wall_table.str().c_str());
    std::printf("paper:    smart 1.1%% -> hot-edge placement 2.5%%\n");
    std::printf("measured: smart %s -> hot-edge placement %s "
                "(ball-larus %s)\n",
                bench::overheadPct(support::mean(ratios[0])).c_str(),
                bench::overheadPct(support::mean(ratios[2])).c_str(),
                bench::overheadPct(support::mean(ratios[1])).c_str());
    std::printf("wall:     none %s ns, smart %s ns -> hot-edge "
                "placement %s ns (ball-larus %s ns)\n",
                ns_cell(support::geomean(wall_ns[0])).c_str(),
                ns_cell(support::geomean(wall_ns[1])).c_str(),
                ns_cell(support::geomean(wall_ns[3])).c_str(),
                ns_cell(support::geomean(wall_ns[2])).c_str());
    return 0;
}
