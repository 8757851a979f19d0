/**
 * @file
 * Harness performance suite: times the simulator itself (not the
 * simulated programs) and emits BENCH_PR2.json, the perf trajectory
 * for this repository.
 *
 * Four measurements:
 *   1. flatten microbenchmark — per-edge action dispatch through the
 *      pre-flattening data structures (nested vector-of-vectors tables
 *      plus an ordered-map version lookup) vs. the flattened hot path
 *      (contiguous EdgeAction array + dense edge ids + vector-indexed
 *      version lookup), over an identical deterministic edge trace;
 *   2. engine dispatch microbenchmark — identical replay runs under
 *      the switch interpreter and the pre-decoded threaded engine
 *      (docs/ENGINE.md): ns per retired instruction and CFG edges
 *      traversed per second, with a byte-identity check of every
 *      observable (profiles, cycles, engine-independent stats);
 *   3. serial suite run — every (benchmark, config) cell on one
 *      worker: wall-clock seconds and simulated cycles per second;
 *   4. parallel suite run — the same cells fanned out over the cores
 *      via ParallelRunner, with a byte-identity check of the composed
 *      output against the serial order.
 *
 * Usage: perf_suite [output.json] [engine-output.json]
 *        (defaults BENCH_PR2.json and BENCH_PR5.json — measurements
 *        1, 3, 4 land in the first file, measurement 2 in the second)
 * PEP_BENCH_SCALE / PEP_BENCH_ONLY / PEP_BENCH_THREADS apply.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "common/harness.hh"
#include "core/path_engine.hh"
#include "support/stats.hh"
#include "workload/parallel_runner.hh"
#include "workload/synthetic.hh"

using namespace pep;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Optimization barrier: stops the compiler collapsing repeated
 *  measurement passes into one (google-benchmark's ClobberMemory). */
inline void
clobberMemory()
{
    asm volatile("" ::: "memory");
}

/** Make a checksum observable so no timed repeat is dead code even
 *  when a later repeat overwrites it (google-benchmark's
 *  DoNotOptimize). */
inline void
keepValue(std::uint64_t &value)
{
    asm volatile("" : "+r"(value));
}

// ---- flatten microbenchmark -----------------------------------------

/** One simulated optimized-method invocation: a version lookup
 *  followed by a stream of taken CFG edges. */
struct TraceCall
{
    std::uint32_t method = 0;
    std::uint32_t version = 0;
    std::vector<cfg::EdgeRef> edges;
};

struct FlattenBench
{
    double nestedNsPerEdge = 0.0;
    double flatNsPerEdge = 0.0;
    double speedup = 0.0;
    std::size_t edgesPerPass = 0;
};

/**
 * Time the two dispatch styles over the same trace. The nested runner
 * reproduces the pre-flattening hot path: an ordered-map lookup per
 * call (the old std::map<VersionKey, ...> at method entry) and a
 * vector-of-vectors walk per edge, over per-block copies of each
 * plan's edge table built here. The flat runner is the new one:
 * vector-indexed version lookup, then the cached base pointers.
 */
FlattenBench
runFlattenBench(const bytecode::Program &program)
{
    std::vector<bytecode::MethodCfg> cfgs;
    std::vector<std::unique_ptr<core::MethodProfilingState>> states;
    cfgs.reserve(program.methods.size());
    for (const bytecode::Method &method : program.methods)
        cfgs.push_back(bytecode::buildCfg(method));
    for (std::size_t m = 0; m < cfgs.size(); ++m) {
        states.push_back(core::buildProfilingState(
            cfgs[m], static_cast<bytecode::MethodId>(m), 0,
            profile::DagMode::HeaderSplit,
            profile::NumberingScheme::BallLarus, nullptr));
    }

    // The engine keeps one profile per (method, version); recompiles
    // mean several live versions per method, and the old map spanned
    // all of them. Mirror that shape so the lookup cost is realistic.
    constexpr std::uint32_t kVersions = 4;
    using Key = std::pair<std::uint32_t, std::uint32_t>;
    using NestedTable = std::vector<std::vector<profile::EdgeAction>>;
    std::vector<NestedTable> nested(states.size());
    std::map<Key, const NestedTable *> by_map;
    std::vector<std::vector<const profile::InstrumentationPlan *>>
        by_vector(states.size());
    for (std::size_t m = 0; m < states.size(); ++m) {
        const profile::InstrumentationPlan &plan = states[m]->plan;
        if (!plan.enabled)
            continue;
        for (std::size_t b = 0; b + 1 < plan.edgeBase.size(); ++b) {
            nested[m].emplace_back(
                plan.flatEdgeActions.begin() + plan.edgeBase[b],
                plan.flatEdgeActions.begin() + plan.edgeBase[b + 1]);
        }
        for (std::uint32_t v = 0; v < kVersions; ++v) {
            by_map[{static_cast<std::uint32_t>(m), v}] = &nested[m];
            by_vector[m].push_back(&plan);
        }
    }

    // Deterministic edge trace: round-robin the methods, walking each
    // CFG from entry with an LCG choosing successors, bounded per
    // call. Every edge taken exists in both table representations.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    auto next_rand = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(lcg >> 33);
    };
    std::vector<TraceCall> trace;
    std::size_t total_edges = 0;
    constexpr std::size_t kCalls = 4096;
    constexpr std::size_t kMaxEdgesPerCall = 64;
    for (std::size_t c = 0; c < kCalls; ++c) {
        const std::uint32_t m =
            static_cast<std::uint32_t>(c % states.size());
        if (by_vector[m].empty())
            continue;
        TraceCall call;
        call.method = m;
        call.version = next_rand() % kVersions;
        const cfg::Graph &graph = cfgs[m].graph;
        cfg::BlockId at = graph.entry();
        for (std::size_t step = 0; step < kMaxEdgesPerCall; ++step) {
            const auto &succs = graph.succs(at);
            if (succs.empty())
                break;
            const std::uint32_t i = next_rand() %
                static_cast<std::uint32_t>(succs.size());
            call.edges.push_back(cfg::EdgeRef{at, i});
            at = succs[i];
        }
        total_edges += call.edges.size();
        trace.push_back(std::move(call));
    }

    constexpr int kPasses = 400;
    constexpr int kRepeats = 3; // best-of to shed scheduler noise
    std::uint64_t nested_sum = 0;
    std::uint64_t flat_sum = 0;

    auto run_nested = [&] {
        nested_sum = 0;
        const auto start = std::chrono::steady_clock::now();
        for (int pass = 0; pass < kPasses; ++pass) {
            for (const TraceCall &call : trace) {
                const NestedTable &table =
                    *by_map.find({call.method, call.version})->second;
                for (const cfg::EdgeRef &e : call.edges) {
                    const profile::EdgeAction &action =
                        table[e.src][e.index];
                    nested_sum += action.increment + action.endAdd;
                }
            }
            clobberMemory();
        }
        keepValue(nested_sum);
        return secondsSince(start);
    };
    auto run_flat = [&] {
        flat_sum = 0;
        const auto start = std::chrono::steady_clock::now();
        for (int pass = 0; pass < kPasses; ++pass) {
            for (const TraceCall &call : trace) {
                const profile::InstrumentationPlan *plan =
                    by_vector[call.method][call.version];
                const profile::EdgeAction *actions =
                    plan->flatEdgeActions.data();
                const std::uint32_t *base = plan->edgeBase.data();
                for (const cfg::EdgeRef &e : call.edges) {
                    const profile::EdgeAction &action =
                        actions[base[e.src] + e.index];
                    flat_sum += action.increment + action.endAdd;
                }
            }
            clobberMemory();
        }
        keepValue(flat_sum);
        return secondsSince(start);
    };

    double nested_seconds = run_nested();
    double flat_seconds = run_flat();
    for (int r = 1; r < kRepeats; ++r) {
        nested_seconds = std::min(nested_seconds, run_nested());
        flat_seconds = std::min(flat_seconds, run_flat());
    }

    if (nested_sum != flat_sum) {
        std::fprintf(stderr,
                     "perf_suite: dispatch checksums diverge "
                     "(%llu vs %llu)\n",
                     static_cast<unsigned long long>(nested_sum),
                     static_cast<unsigned long long>(flat_sum));
        std::exit(1);
    }

    const double total =
        static_cast<double>(total_edges) * kPasses;
    FlattenBench result;
    result.edgesPerPass = total_edges;
    result.nestedNsPerEdge = nested_seconds * 1e9 / total;
    result.flatNsPerEdge = flat_seconds * 1e9 / total;
    result.speedup = flat_seconds > 0.0
                         ? nested_seconds / flat_seconds
                         : 0.0;
    return result;
}

// ---- engine dispatch microbenchmark ---------------------------------

struct EngineBench
{
    double switchSeconds = 0.0;
    double threadedSeconds = 0.0;
    double switchNsPerInstr = 0.0;
    double threadedNsPerInstr = 0.0;
    double switchEdgesPerSec = 0.0;
    double threadedEdgesPerSec = 0.0;
    /** Threaded edges/sec over switch edges/sec. */
    double speedup = 0.0;
    std::uint64_t instructionsPerRun = 0;
    std::uint64_t edgesPerRun = 0;
    bool outputsIdentical = false;
};

/**
 * Serialize everything a run may legitimately observe: ground-truth
 * and one-time edge profiles, the simulated clock, and the
 * engine-independent machine counters. methodsDecoded and
 * templateInvalidations are deliberately excluded — they describe the
 * harness's translation cache, not simulated behaviour, and differ
 * between engines by design.
 */
std::string
serializeObservables(const vm::Machine &machine)
{
    std::string out;
    char line[192];
    const auto dump_set = [&](const profile::EdgeProfileSet &set,
                              const char *tag) {
        for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
            const auto &counts = set.perMethod[m].counts();
            for (std::size_t b = 0; b < counts.size(); ++b) {
                for (std::size_t i = 0; i < counts[b].size(); ++i) {
                    if (counts[b][i] == 0)
                        continue;
                    std::snprintf(line, sizeof(line),
                                  "%s %zu %zu %zu %llu\n", tag, m, b, i,
                                  static_cast<unsigned long long>(
                                      counts[b][i]));
                    out += line;
                }
            }
        }
    };
    dump_set(machine.truthEdges(), "truth");
    dump_set(machine.oneTimeEdges(), "one-time");
    const vm::MachineStats &s = machine.stats();
    std::snprintf(line, sizeof(line),
                  "clock %llu\nstats %llu %llu %llu %llu %llu %llu "
                  "%llu %llu %llu\n",
                  static_cast<unsigned long long>(machine.now()),
                  static_cast<unsigned long long>(
                      s.instructionsExecuted),
                  static_cast<unsigned long long>(s.methodInvocations),
                  static_cast<unsigned long long>(
                      s.yieldpointsExecuted),
                  static_cast<unsigned long long>(s.timerTicks),
                  static_cast<unsigned long long>(s.compileCycles),
                  static_cast<unsigned long long>(s.compiles),
                  static_cast<unsigned long long>(s.osrs),
                  static_cast<unsigned long long>(s.layoutMisses),
                  static_cast<unsigned long long>(s.branchesExecuted));
    out += line;
    return out;
}

struct EngineRunResult
{
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t edges = 0;
    std::string blob;
};

/**
 * Time one engine over the replay workload: iteration 1 compiles every
 * method at its final level (untimed), then kEngineIters measured
 * iterations run under the pinned engine with no profilers attached,
 * so the timed region is pure interpreter dispatch plus the always-on
 * ground-truth edge recording. Best-of kRepeats fresh machines.
 */
EngineRunResult
runEngineBench(const bench::Prepared &prepared,
               const vm::SimParams &base_params, vm::EngineKind kind)
{
    constexpr int kEngineIters = 3;
    constexpr int kRepeats = 3;

    vm::SimParams params = base_params;
    params.engine = kind;

    EngineRunResult result;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
        bench::ReplayRun run(prepared, params);
        run.runCompileIteration();
        run.clearCollectedProfiles();
        const vm::MachineStats before = run.machine().stats();
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kEngineIters; ++i)
            run.runMeasuredIteration();
        const double seconds = secondsSince(start);
        const vm::MachineStats &after = run.machine().stats();
        if (repeat == 0 || seconds < result.seconds)
            result.seconds = seconds;
        result.instructions =
            after.instructionsExecuted - before.instructionsExecuted;
        result.edges = run.machine().truthEdges().totalCount();
        result.blob = serializeObservables(run.machine());
    }
    return result;
}

EngineBench
runEngineDispatchBench(const workload::WorkloadSpec &spec,
                       const vm::SimParams &params)
{
    // One shared record run: advice is an observable, so it is
    // engine-independent; both timed runs replay the same decisions.
    const bench::Prepared prepared = bench::prepare(spec, params);
    const EngineRunResult sw =
        runEngineBench(prepared, params, vm::EngineKind::Switch);
    const EngineRunResult th =
        runEngineBench(prepared, params, vm::EngineKind::Threaded);

    EngineBench result;
    result.switchSeconds = sw.seconds;
    result.threadedSeconds = th.seconds;
    result.instructionsPerRun = sw.instructions;
    result.edgesPerRun = sw.edges;
    result.switchNsPerInstr =
        sw.seconds * 1e9 / static_cast<double>(sw.instructions);
    result.threadedNsPerInstr =
        th.seconds * 1e9 / static_cast<double>(th.instructions);
    result.switchEdgesPerSec =
        static_cast<double>(sw.edges) / sw.seconds;
    result.threadedEdgesPerSec =
        static_cast<double>(th.edges) / th.seconds;
    result.speedup = th.seconds > 0.0
                         ? result.threadedEdgesPerSec /
                               result.switchEdgesPerSec
                         : 0.0;
    result.outputsIdentical = sw.blob == th.blob;
    if (!result.outputsIdentical)
        std::fprintf(stderr,
                     "perf_suite: switch and threaded engines "
                     "disagree on observable state\n");
    return result;
}

// ---- suite timing ----------------------------------------------------

/** Output text plus simulated cycles of one suite cell. */
struct CellResult
{
    std::string text;
    std::uint64_t cycles = 0;
};

CellResult
runCell(const workload::WorkloadSpec &spec, const vm::SimParams &params)
{
    const bench::Prepared prepared = bench::prepare(spec, params);

    bench::ReplayRun base_run(prepared, params);
    const std::uint64_t base = base_run.runStandard();

    bench::ReplayRun pep_run(prepared, params);
    pep_run.attachPep(
        std::make_unique<core::SimplifiedArnoldGrove>(64, 17));
    const std::uint64_t with_pep = pep_run.runStandard();

    char line[160];
    std::snprintf(line, sizeof(line), "%-12s %14llu %14llu %8.4f\n",
                  spec.name.c_str(),
                  static_cast<unsigned long long>(base),
                  static_cast<unsigned long long>(with_pep),
                  static_cast<double>(with_pep) /
                      static_cast<double>(base));
    CellResult result;
    result.text = line;
    result.cycles = base + with_pep;
    return result;
}

struct SuiteRun
{
    double wallSeconds = 0.0;
    std::uint64_t simulatedCycles = 0;
    std::string output;
};

SuiteRun
runSuite(const std::vector<workload::WorkloadSpec> &suite,
         const vm::SimParams &params, unsigned workers)
{
    std::vector<CellResult> slots(suite.size());
    const workload::ParallelRunner runner(workers);
    const auto start = std::chrono::steady_clock::now();
    runner.run(suite.size(), [&](std::size_t i) {
        slots[i] = runCell(suite[i], params);
    });
    SuiteRun result;
    result.wallSeconds = secondsSince(start);
    for (const CellResult &cell : slots) {
        result.output += cell.text;
        result.simulatedCycles += cell.cycles;
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_PR2.json";
    const std::string engine_json_path =
        argc > 2 ? argv[2] : "BENCH_PR5.json";
    const vm::SimParams params = bench::defaultParams();
    const std::vector<workload::WorkloadSpec> suite =
        bench::benchSuite();
    // At least two workers even on a single-core box, so the threaded
    // fan-out and the byte-identity check are actually exercised (the
    // speedup field then honestly reports ~1.0).
    const unsigned workers = std::max(
        2u, workload::ParallelRunner::defaultWorkers());

    std::printf("perf_suite: flatten microbenchmark...\n");
    const bytecode::Program micro_program =
        workload::generateWorkload(suite[0]);
    const FlattenBench flatten = runFlattenBench(micro_program);
    std::printf("  nested+map dispatch: %.2f ns/edge\n",
                flatten.nestedNsPerEdge);
    std::printf("  flat+cached dispatch: %.2f ns/edge  (%.2fx)\n",
                flatten.flatNsPerEdge, flatten.speedup);

    std::printf("perf_suite: engine dispatch microbenchmark...\n");
    const EngineBench engine =
        runEngineDispatchBench(suite[0], params);
    std::printf("  switch dispatch:   %.2f ns/instr, %.3g edges/s\n",
                engine.switchNsPerInstr, engine.switchEdgesPerSec);
    std::printf("  threaded dispatch: %.2f ns/instr, %.3g edges/s  "
                "(%.2fx, output %s)\n",
                engine.threadedNsPerInstr, engine.threadedEdgesPerSec,
                engine.speedup,
                engine.outputsIdentical ? "identical" : "DIVERGES");

    std::printf("perf_suite: serial suite (1 worker)...\n");
    const SuiteRun serial = runSuite(suite, params, 1);
    std::printf("perf_suite: parallel suite (%u workers)...\n",
                workers);
    const SuiteRun parallel = runSuite(suite, params, workers);

    const bool identical = serial.output == parallel.output;
    const double serial_cps =
        static_cast<double>(serial.simulatedCycles) /
        serial.wallSeconds;
    const double parallel_cps =
        static_cast<double>(parallel.simulatedCycles) /
        parallel.wallSeconds;

    std::printf("\nbenchmark        base(cyc)       pep(cyc)    "
                "ratio\n%s\n",
                serial.output.c_str());
    std::printf("serial:   %.3f s wall, %.3g simulated cycles/s\n",
                serial.wallSeconds, serial_cps);
    std::printf("parallel: %.3f s wall, %.3g simulated cycles/s "
                "(%.2fx, output %s)\n",
                parallel.wallSeconds, parallel_cps,
                serial.wallSeconds / parallel.wallSeconds,
                identical ? "identical" : "DIVERGES");

    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "perf_suite: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"suite_cells\": %zu,\n", suite.size());
    std::fprintf(json, "  \"workers\": %u,\n", workers);
    std::fprintf(json, "  \"flatten\": {\n");
    std::fprintf(json, "    \"nested_ns_per_edge\": %.4f,\n",
                 flatten.nestedNsPerEdge);
    std::fprintf(json, "    \"flat_ns_per_edge\": %.4f,\n",
                 flatten.flatNsPerEdge);
    std::fprintf(json, "    \"edges_per_pass\": %zu,\n",
                 flatten.edgesPerPass);
    std::fprintf(json, "    \"flatten_speedup\": %.4f\n",
                 flatten.speedup);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"serial\": {\n");
    std::fprintf(json, "    \"wall_seconds\": %.6f,\n",
                 serial.wallSeconds);
    std::fprintf(json, "    \"simulated_cycles\": %llu,\n",
                 static_cast<unsigned long long>(
                     serial.simulatedCycles));
    std::fprintf(json, "    \"simulated_cycles_per_sec\": %.1f\n",
                 serial_cps);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"parallel\": {\n");
    std::fprintf(json, "    \"wall_seconds\": %.6f,\n",
                 parallel.wallSeconds);
    std::fprintf(json, "    \"simulated_cycles\": %llu,\n",
                 static_cast<unsigned long long>(
                     parallel.simulatedCycles));
    std::fprintf(json, "    \"simulated_cycles_per_sec\": %.1f,\n",
                 parallel_cps);
    std::fprintf(json, "    \"parallel_speedup\": %.4f\n",
                 serial.wallSeconds / parallel.wallSeconds);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"output_identical\": %s\n",
                 identical ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("perf_suite: wrote %s\n", json_path.c_str());

    FILE *engine_json = std::fopen(engine_json_path.c_str(), "w");
    if (!engine_json) {
        std::fprintf(stderr, "perf_suite: cannot write %s\n",
                     engine_json_path.c_str());
        return 1;
    }
    std::fprintf(engine_json, "{\n");
    std::fprintf(engine_json, "  \"workload\": \"%s\",\n",
                 suite[0].name.c_str());
    std::fprintf(engine_json, "  \"instructions_per_run\": %llu,\n",
                 static_cast<unsigned long long>(
                     engine.instructionsPerRun));
    std::fprintf(engine_json, "  \"edges_per_run\": %llu,\n",
                 static_cast<unsigned long long>(engine.edgesPerRun));
    std::fprintf(engine_json, "  \"switch\": {\n");
    std::fprintf(engine_json, "    \"wall_seconds\": %.6f,\n",
                 engine.switchSeconds);
    std::fprintf(engine_json, "    \"ns_per_instr\": %.4f,\n",
                 engine.switchNsPerInstr);
    std::fprintf(engine_json, "    \"edges_per_sec\": %.1f\n",
                 engine.switchEdgesPerSec);
    std::fprintf(engine_json, "  },\n");
    std::fprintf(engine_json, "  \"threaded\": {\n");
    std::fprintf(engine_json, "    \"wall_seconds\": %.6f,\n",
                 engine.threadedSeconds);
    std::fprintf(engine_json, "    \"ns_per_instr\": %.4f,\n",
                 engine.threadedNsPerInstr);
    std::fprintf(engine_json, "    \"edges_per_sec\": %.1f\n",
                 engine.threadedEdgesPerSec);
    std::fprintf(engine_json, "  },\n");
    std::fprintf(engine_json,
                 "  \"threaded_speedup_edges_per_sec\": %.4f,\n",
                 engine.speedup);
    std::fprintf(engine_json, "  \"outputs_identical\": %s\n",
                 engine.outputsIdentical ? "true" : "false");
    std::fprintf(engine_json, "}\n");
    std::fclose(engine_json);
    std::printf("perf_suite: wrote %s\n", engine_json_path.c_str());

    return identical && engine.outputsIdentical ? 0 : 1;
}
