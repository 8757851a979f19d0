/**
 * @file
 * Superinstruction and hot-trace dispatch benchmark: times identical
 * replay runs across the PEP_ENGINE x PEP_FUSE matrix and emits
 * BENCH_PR10.json.
 *
 * Four cells, all over the same recorded advice (docs/ENGINE.md):
 *
 *   switch-none           the reference interpreter;
 *   threaded-none         the pre-decoded threaded engine, plain
 *                         per-opcode templates — the speedup
 *                         baseline;
 *   threaded-pairs        superinstruction pairs/triples with
 *                         burned-in operands (PEP_FUSE=pairs);
 *   threaded-pairs-traces pairs plus straightened hot-trace segments
 *                         with guarded exits and batched per-trace
 *                         accounting (PEP_FUSE=pairs,traces).
 *
 * Reported per cell: ns per retired instruction and CFG edges
 * traversed per second, plus a static breakdown of the fused cells'
 * template streams (how many dispatches fusion and tracing removed).
 *
 * Two gates decide the exit status:
 *   - identity: every observable (testing::serializeRun) must be
 *     byte-identical across all four cells — always enforced;
 *   - speedup: the fully fused cell must reach >= 1.20x the
 *     threaded-none baseline in edges/sec — enforced exactly when
 *     PEP_BENCH_SCALE is 1 (smaller scales are smoke tests on noisy
 *     CI boxes, where wall-clock gates would flake).
 *
 * Usage: tab_fusion [output.json]   (default BENCH_PR10.json)
 * PEP_BENCH_SCALE / PEP_BENCH_ONLY apply.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/harness.hh"
#include "testing/observables.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/machine.hh"
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

/** Static anatomy of one cell's translated template streams. */
struct StreamBreakdown
{
    std::uint64_t templates = 0;
    /** Fused superinstruction templates / constituent instructions
     *  they cover (guards excluded). */
    std::uint64_t fusedTemplates = 0;
    std::uint64_t fusedConstituents = 0;
    std::uint64_t guardTemplates = 0;
    std::uint64_t traces = 0;
    std::uint64_t traceBlocks = 0;
    /** Dispatches a fully sequential walk of the streams saves vs.
     *  one template per instruction: sum of (fuseLen - 1). */
    std::uint64_t dispatchesSaved = 0;
};

/** Walk every current version's cached stream under the cell's fuse
 *  options (streams are deterministic, so any repeat's machine gives
 *  the same answer). */
StreamBreakdown
analyzeStreams(vm::Machine &machine, std::size_t num_methods)
{
    StreamBreakdown out;
    for (std::size_t m = 0; m < num_methods; ++m) {
        const vm::CompiledMethod *cm =
            machine.currentVersion(static_cast<bytecode::MethodId>(m));
        if (!cm)
            continue;
        const vm::DecodedMethod &decoded = machine.decodedFor(*cm);
        out.templates += decoded.stream.size();
        for (const vm::Template &tpl : decoded.stream) {
            if (vm::isFusedTop(tpl.op)) {
                ++out.fusedTemplates;
                out.fusedConstituents += tpl.fuseLen;
            }
            if (vm::isGuardTop(tpl.op))
                ++out.guardTemplates;
            if (tpl.fuseLen > 1)
                out.dispatchesSaved += tpl.fuseLen - 1u;
        }
        out.traces += decoded.traces.size();
        for (const std::vector<cfg::BlockId> &trace : decoded.traces)
            out.traceBlocks += trace.size();
    }
    return out;
}

struct Cell
{
    const char *label;
    vm::EngineKind engine;
    vm::FuseOptions fuse;
};

struct CellResult
{
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t edges = 0;
    double nsPerInstr = 0.0;
    double edgesPerSec = 0.0;
    std::string blob;
    StreamBreakdown streams;
};

/**
 * Time one cell over the replay workload: iteration 1 compiles every
 * method at its final level (untimed), then kEngineIters measured
 * iterations run under the pinned engine and fusion selection with no
 * profilers attached. Best-of kRepeats fresh machines.
 */
CellResult
runCellBench(const bench::Prepared &prepared,
             const vm::SimParams &base_params, const Cell &cell)
{
    constexpr int kEngineIters = 3;
    constexpr int kRepeats = 3;

    vm::SimParams params = base_params;
    params.engine = cell.engine;
    params.fuse = cell.fuse;

    CellResult result;
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
        result.blob = testing::serializeRun(run.machine());
        if (repeat == kRepeats - 1)
            result.streams = analyzeStreams(
                run.machine(), prepared.program.methods.size());
    }
    result.nsPerInstr = result.seconds * 1e9 /
                        static_cast<double>(result.instructions);
    result.edgesPerSec =
        static_cast<double>(result.edges) / result.seconds;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_PR10.json";
    const vm::SimParams params = bench::defaultParams();
    const std::vector<workload::WorkloadSpec> suite =
        bench::benchSuite();

    const Cell cells[] = {
        {"switch-none", vm::EngineKind::Switch, {false, false}},
        {"threaded-none", vm::EngineKind::Threaded, {false, false}},
        {"threaded-pairs", vm::EngineKind::Threaded, {true, false}},
        {"threaded-pairs-traces", vm::EngineKind::Threaded,
         {true, true}},
    };
    constexpr std::size_t kCells = sizeof(cells) / sizeof(cells[0]);
    constexpr std::size_t kBaseline = 1; // threaded-none
    constexpr std::size_t kFused = 3;    // threaded-pairs-traces
    constexpr double kSpeedupGate = 1.20;

    // One shared record run: advice is an observable, so it is
    // engine- and fusion-independent; all four timed cells replay the
    // same decisions.
    std::printf("tab_fusion: workload %s, %zu cells...\n",
                suite[0].name.c_str(), kCells);
    const bench::Prepared prepared = bench::prepare(suite[0], params);

    CellResult results[kCells];
    for (std::size_t c = 0; c < kCells; ++c) {
        results[c] = runCellBench(prepared, params, cells[c]);
        std::printf("  %-22s %7.2f ns/instr, %10.3g edges/s"
                    " (%llu fused tpl, %llu traces)\n",
                    cells[c].label, results[c].nsPerInstr,
                    results[c].edgesPerSec,
                    static_cast<unsigned long long>(
                        results[c].streams.fusedTemplates),
                    static_cast<unsigned long long>(
                        results[c].streams.traces));
    }

    bool identical = true;
    for (std::size_t c = 1; c < kCells; ++c) {
        if (results[c].blob != results[0].blob) {
            identical = false;
            std::fprintf(stderr,
                         "tab_fusion: observables of %s diverge from "
                         "%s\n",
                         cells[c].label, cells[0].label);
        }
    }

    const double pairs_speedup =
        results[kBaseline].edgesPerSec > 0.0
            ? results[2].edgesPerSec / results[kBaseline].edgesPerSec
            : 0.0;
    const double fused_speedup =
        results[kBaseline].edgesPerSec > 0.0
            ? results[kFused].edgesPerSec /
                  results[kBaseline].edgesPerSec
            : 0.0;
    const bool enforce_speedup = bench::benchScale() == 1.0;
    const bool speedup_ok = fused_speedup >= kSpeedupGate;

    std::printf("  pairs speedup:        %.3fx vs threaded-none\n",
                pairs_speedup);
    std::printf("  pairs+traces speedup: %.3fx vs threaded-none "
                "(gate %.2fx, %s)\n",
                fused_speedup, kSpeedupGate,
                enforce_speedup ? "enforced" : "reported only");
    std::printf("  observables: %s\n",
                identical ? "identical" : "DIVERGE");

    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "tab_fusion: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"workload\": \"%s\",\n",
                 suite[0].name.c_str());
    std::fprintf(json, "  \"instructions_per_run\": %llu,\n",
                 static_cast<unsigned long long>(
                     results[0].instructions));
    std::fprintf(json, "  \"edges_per_run\": %llu,\n",
                 static_cast<unsigned long long>(results[0].edges));
    std::fprintf(json, "  \"cells\": {\n");
    for (std::size_t c = 0; c < kCells; ++c) {
        const CellResult &r = results[c];
        std::fprintf(json, "    \"%s\": {\n", cells[c].label);
        std::fprintf(json, "      \"engine\": \"%s\",\n",
                     vm::engineKindName(cells[c].engine));
        std::fprintf(json, "      \"fuse\": \"%s\",\n",
                     vm::fuseOptionsName(cells[c].fuse));
        std::fprintf(json, "      \"wall_seconds\": %.6f,\n",
                     r.seconds);
        std::fprintf(json, "      \"ns_per_instr\": %.4f,\n",
                     r.nsPerInstr);
        std::fprintf(json, "      \"edges_per_sec\": %.1f,\n",
                     r.edgesPerSec);
        std::fprintf(json, "      \"templates\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.streams.templates));
        std::fprintf(json, "      \"fused_templates\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.streams.fusedTemplates));
        std::fprintf(json, "      \"fused_constituents\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.streams.fusedConstituents));
        std::fprintf(json, "      \"guard_templates\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.streams.guardTemplates));
        std::fprintf(json, "      \"traces\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.streams.traces));
        std::fprintf(json, "      \"trace_blocks\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.streams.traceBlocks));
        std::fprintf(json, "      \"dispatches_saved\": %llu\n",
                     static_cast<unsigned long long>(
                         r.streams.dispatchesSaved));
        std::fprintf(json, "    }%s\n", c + 1 < kCells ? "," : "");
    }
    std::fprintf(json, "  },\n");
    std::fprintf(json,
                 "  \"baseline\": \"threaded-none\",\n");
    std::fprintf(json,
                 "  \"pairs_speedup_edges_per_sec\": %.4f,\n",
                 pairs_speedup);
    std::fprintf(json,
                 "  \"fused_speedup_edges_per_sec\": %.4f,\n",
                 fused_speedup);
    std::fprintf(json, "  \"speedup_gate\": %.2f,\n", kSpeedupGate);
    std::fprintf(json, "  \"speedup_gate_enforced\": %s,\n",
                 enforce_speedup ? "true" : "false");
    std::fprintf(json, "  \"outputs_identical\": %s\n",
                 identical ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("tab_fusion: wrote %s\n", json_path.c_str());

    if (!identical)
        return 1;
    if (enforce_speedup && !speedup_ok) {
        std::fprintf(stderr,
                     "tab_fusion: fused speedup %.3fx below the "
                     "%.2fx gate\n",
                     fused_speedup, kSpeedupGate);
        return 1;
    }
    return 0;
}
