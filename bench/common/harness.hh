#ifndef PEP_BENCH_COMMON_HARNESS_HH
#define PEP_BENCH_COMMON_HARNESS_HH

/**
 * @file
 * Shared benchmark-harness plumbing. Each fig* / tab* binary follows
 * the paper's replay methodology (Section 5):
 *
 *   1. an adaptive *record* run produces advice (final opt levels plus
 *      the baseline one-time edge profile);
 *   2. a *replay* run compiles each method at its final level on first
 *      invocation. Iteration 1 includes compile cost (Figure 7);
 *      iteration 2 measures application execution only (Figures 6,
 *      8-10).
 *
 * Scale the suite with PEP_BENCH_SCALE (0 < s <= 1, default 1) to trade
 * fidelity for wall-clock time, e.g. PEP_BENCH_SCALE=0.2 for smoke
 * runs; any other value is rejected (benchScale). Set
 * PEP_BENCH_ONLY=<name> to run a single benchmark; an unknown name is
 * rejected (benchSuite).
 */

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/overlap.hh"
#include "metrics/path_accuracy.hh"
#include "vm/machine.hh"
#include "workload/parallel_runner.hh"
#include "workload/suite.hh"

namespace pep::bench {

/**
 * PEP_BENCH_SCALE, the one parse every bench uses: 1 when unset or
 * empty; a value that is not a number in (0, 1] prints a message
 * naming the variable and the value and exits 2, so a typo fails
 * loudly instead of running at some other scale.
 */
double benchScale();

/**
 * Suite scaled per benchScale(), restricted to the benchmark
 * PEP_BENCH_ONLY names when it is set and not empty. A name no
 * benchmark has prints a message naming the variable and the value
 * and exits 2, so a typo never runs an empty suite.
 */
std::vector<workload::WorkloadSpec> benchSuite();

/** The default simulation parameters used by every harness. */
vm::SimParams defaultParams();

/** A workload plus the advice recorded from its adaptive run. */
struct Prepared
{
    workload::WorkloadSpec spec;
    bytecode::Program program;
    vm::ReplayAdvice advice;
};

/** Generate the program and record replay advice. */
Prepared prepare(const workload::WorkloadSpec &spec,
                 const vm::SimParams &params);

/**
 * One replay experiment: a machine plus owned profilers. Construct,
 * attach profilers, then run iteration 1 (compile + execute), clear
 * collected profiles, and run iteration 2 (measure).
 */
class ReplayRun
{
  public:
    ReplayRun(const Prepared &prepared, const vm::SimParams &params);

    /** Attach a PEP profiler with the given controller (both owned).
     *  Does NOT route layout decisions through PEP (use
     *  drivesOptimization=true for Figure 11 style runs). */
    core::PepProfiler &attachPep(
        std::unique_ptr<core::SamplingController> controller,
        const core::PepOptions &options = {},
        bool drives_optimization = false);

    /** Attach a store-every-path profiler (owned). */
    core::FullPathProfiler &attachFullPath(
        profile::DagMode mode, bool charge_costs,
        core::PathStoreKind store = core::PathStoreKind::Hash);

    /** Attach instrumentation-based edge profiling (owned). */
    core::InstrEdgeProfiler &attachInstrEdge(bool charge_costs = true);

    /** Override the layout profile source (not owned). */
    void setLayoutSource(vm::LayoutSource *source);

    vm::Machine &machine() { return *machine_; }

    /** Iteration 1: compile + execute; returns its cycles. */
    std::uint64_t runCompileIteration();

    /** Clear all collected profiles (PEP, full profilers, machine
     *  ground truth) before the measured iteration. */
    void clearCollectedProfiles();

    /** Iteration 2: measured execution; returns its cycles. */
    std::uint64_t runMeasuredIteration();

    /** Convenience: iteration 1, clear, iteration 2; returns the
     *  measured cycles. */
    std::uint64_t runStandard();

  private:
    vm::ReplayAdvice advice_;
    std::unique_ptr<vm::Machine> machine_;
    std::vector<std::unique_ptr<core::SamplingController>> controllers_;
    std::vector<std::unique_ptr<core::PepProfiler>> peps_;
    std::vector<std::unique_ptr<core::FullPathProfiler>> fulls_;
    std::vector<std::unique_ptr<core::InstrEdgeProfiler>> instrEdges_;
};

/** Copies of all method CFGs (metrics helpers need them). */
std::vector<bytecode::MethodCfg> allCfgs(const vm::Machine &machine);

/**
 * Evaluate fn over every suite entry, fanned out over the cores
 * (PEP_BENCH_THREADS overrides the worker count; 1 runs serially),
 * and return the results in suite order. Each call of fn builds its
 * own Machines and shares nothing, so the output a caller renders from
 * the returned vector is byte-identical to running the loop serially.
 */
template <typename Fn>
auto
mapSuite(const std::vector<workload::WorkloadSpec> &suite, Fn &&fn)
    -> std::vector<decltype(fn(suite[0]))>
{
    using Result = decltype(fn(suite[0]));
    std::vector<std::optional<Result>> slots(suite.size());
    const workload::ParallelRunner runner;
    runner.run(suite.size(), [&](std::size_t i) {
        slots[i].emplace(fn(suite[i]));
    });
    std::vector<Result> results;
    results.reserve(slots.size());
    for (std::optional<Result> &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

/** Profiles collected by one accuracy measurement run. */
struct AccuracyResult
{
    /** Canonicalized sampled / perfect path profiles. */
    metrics::CanonicalPathProfile pepPaths;
    metrics::CanonicalPathProfile truthPaths;

    /** PEP's continuous edge profile and the perfect edge profile
     *  derived from instrumentation-based path profiling. */
    profile::EdgeProfileSet pepEdges;
    profile::EdgeProfileSet perfectEdges;

    /** Edge profile from instrumentation-based *edge* profiling. */
    profile::EdgeProfileSet instrEdges;

    std::vector<bytecode::MethodCfg> cfgs;
    core::PepStats pepStats;
};

/**
 * Replay-run a benchmark with PEP(samples, stride) plus zero-cost
 * perfect profilers; measure iteration 2 and return the collected
 * profiles. `full_arnold_grove` selects the unsimplified controller.
 */
AccuracyResult runAccuracy(const Prepared &prepared,
                           const vm::SimParams &params,
                           std::uint32_t samples, std::uint32_t stride,
                           bool full_arnold_grove = false);

/** Format helpers shared by the harness mains. */
std::string pct(double fraction, int decimals = 1);
std::string overheadPct(double ratio);

} // namespace pep::bench

#endif // PEP_BENCH_COMMON_HARNESS_HH
