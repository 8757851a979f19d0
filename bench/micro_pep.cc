/**
 * @file
 * google-benchmark microbenchmarks for PEP's building blocks: P-DAG
 * construction, path numbering, greedy reconstruction (first-sample
 * slow path vs the cached common case), the sampling countdown, and raw
 * interpreter throughput. These quantify design choices the paper
 * relies on qualitatively (e.g., caching a path's edge expansion after
 * its first sample, Section 4.3).
 */

#include <benchmark/benchmark.h>

#include "bytecode/cfg_builder.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "profile/numbering.hh"
#include "profile/path_profile.hh"
#include "profile/pdag.hh"
#include "profile/plan_state.hh"
#include "support/rng.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"
#include "workload/synthetic.hh"

using namespace pep;

namespace {

/** A suite program with reasonably branchy methods. */
const bytecode::Program &
sampleProgram()
{
    static const bytecode::Program program = [] {
        workload::WorkloadSpec spec = workload::standardSuite()[4];
        return workload::generateWorkload(spec);
    }();
    return program;
}

/** A reasonably branchy method to exercise the algorithms. */
const bytecode::Method &
sampleMethod()
{
    const bytecode::Program &program = sampleProgram();
    bytecode::MethodId id = 0;
    program.findMethod("hot_0", id);
    return program.methods[id];
}

/** The sample method's CFG and plan, built once. */
struct PreparedMethod
{
    const bytecode::MethodCfg cfg = bytecode::buildCfg(sampleMethod());
    const profile::PlanState state{cfg, profile::DagMode::HeaderSplit,
                                   profile::NumberingScheme::BallLarus,
                                   nullptr, profile::PlacementKind::Direct};
};

const PreparedMethod &
preparedMethod()
{
    static const PreparedMethod prepared;
    return prepared;
}

void
BM_BuildCfg(benchmark::State &state)
{
    const bytecode::Method &method = sampleMethod();
    for (auto _ : state)
        benchmark::DoNotOptimize(bytecode::buildCfg(method));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(method.code.size()));
}
BENCHMARK(BM_BuildCfg);

void
BM_BuildPDag(benchmark::State &state)
{
    const auto mode = state.range(0) == 0
                          ? profile::DagMode::HeaderSplit
                          : profile::DagMode::BackEdgeTruncate;
    const bytecode::MethodCfg cfg = bytecode::buildCfg(sampleMethod());
    for (auto _ : state)
        benchmark::DoNotOptimize(profile::buildPDag(cfg, mode));
}
BENCHMARK(BM_BuildPDag)->Arg(0)->Arg(1);

void
BM_NumberPaths(benchmark::State &state)
{
    const bytecode::MethodCfg cfg = bytecode::buildCfg(sampleMethod());
    const profile::PDag pdag =
        profile::buildPDag(cfg, profile::DagMode::HeaderSplit);
    if (state.range(0) == 0) {
        for (auto _ : state) {
            benchmark::DoNotOptimize(profile::numberPaths(
                pdag, profile::NumberingScheme::BallLarus));
        }
    } else {
        // Smart numbering with uniform frequencies.
        profile::DagEdgeFreqs freqs(pdag.dag.numBlocks());
        for (cfg::BlockId v = 0; v < pdag.dag.numBlocks(); ++v)
            freqs[v].assign(pdag.dag.succs(v).size(), 1.0);
        for (auto _ : state) {
            benchmark::DoNotOptimize(profile::numberPaths(
                pdag, profile::NumberingScheme::Smart, &freqs));
        }
    }
}
BENCHMARK(BM_NumberPaths)->Arg(0)->Arg(1);

void
BM_ReconstructPath(benchmark::State &state)
{
    const PreparedMethod &p = preparedMethod();
    support::Rng rng(7);
    const std::uint64_t total = p.state.numbering.totalPaths;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            p.state.reconstructor->reconstruct(rng.nextBounded(total)));
    }
}
BENCHMARK(BM_ReconstructPath);

/** The paper's first-sample vs cached-sample asymmetry (Section 4.3):
 *  arg 0 = expand every time; arg 1 = cache in the path record. */
void
BM_SampleRecording(benchmark::State &state)
{
    const PreparedMethod &p = preparedMethod();
    const bool cached = state.range(0) == 1;
    support::Rng rng(7);
    const std::uint64_t total = p.state.numbering.totalPaths;
    // Pre-draw a sample stream with realistic repetition (few hot
    // paths dominate).
    std::vector<std::uint64_t> stream;
    std::vector<std::uint64_t> hot;
    for (int i = 0; i < 8; ++i)
        hot.push_back(rng.nextBounded(total));
    for (int i = 0; i < 4096; ++i) {
        stream.push_back(rng.nextBool(0.9)
                             ? hot[rng.nextBounded(hot.size())]
                             : rng.nextBounded(total));
    }

    profile::MethodPathProfile paths;
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint64_t number = stream[i++ & 4095];
        profile::PathRecord &record = paths.addSample(number);
        if (!record.expanded || !cached) {
            profile::expandRecord(record, *p.state.reconstructor, number);
        }
        benchmark::DoNotOptimize(record.count);
    }
}
BENCHMARK(BM_SampleRecording)->Arg(0)->Arg(1);

void
BM_SamplingControllers(benchmark::State &state)
{
    // The countdown step of every sampling opportunity
    // (vm::PathRegisterHooks::sampleOpportunity), under PEP(64,17)
    // (arg 0) or AG(64,17) (arg 1), with a tick — the controller's
    // next burst — every 1024 opportunities. No path completes, so
    // no sample reaches a path table.
    core::SimplifiedArnoldGrove simplified(64, 17);
    core::FullArnoldGrove full(64, 17);
    core::SamplingController &controller =
        state.range(0) == 0
            ? static_cast<core::SamplingController &>(simplified)
            : static_cast<core::SamplingController &>(full);
    vm::Machine machine(sampleProgram(), vm::SimParams{});
    core::PepProfiler pep(machine, controller);
    const vm::FrameView frame;
    std::uint64_t i = 0;
    for (auto _ : state) {
        if ((i++ & 1023) == 0)
            pep.onYieldpoint(frame, vm::YieldpointKind::LoopHeader, true);
        else
            benchmark::DoNotOptimize(pep.sampleOpportunity(0));
    }
}
BENCHMARK(BM_SamplingControllers)->Arg(0)->Arg(1);

void
BM_InterpreterThroughput(benchmark::State &state)
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    spec.outerIterations = 20;
    const bytecode::Program program = workload::generateWorkload(spec);
    for (auto _ : state) {
        vm::Machine machine(program, vm::SimParams{});
        machine.runIteration();
        benchmark::DoNotOptimize(machine.stats().instructionsExecuted);
    }
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
