#include "common/harness.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/stats.hh"

namespace pep::bench {

double
benchScale()
{
    const char *env = std::getenv("PEP_BENCH_SCALE");
    if (!env || !*env)
        return 1.0;
    const char *end = env + std::strlen(env);
    double scale = 0.0;
    const auto [parsed_end, error] = std::from_chars(env, end, scale);
    if (error != std::errc() || parsed_end != end || !(scale > 0.0) ||
        scale > 1.0) {
        std::fprintf(stderr,
                     "PEP_BENCH_SCALE=%s: expected a number in (0, 1]\n",
                     env);
        std::exit(2);
    }
    return scale;
}

std::vector<workload::WorkloadSpec>
benchSuite()
{
    std::vector<workload::WorkloadSpec> suite =
        workload::scaledSuite(benchScale());
    const char *only = std::getenv("PEP_BENCH_ONLY");
    if (!only || !*only)
        return suite;
    std::string names;
    for (const workload::WorkloadSpec &spec : suite) {
        if (spec.name == only)
            return {spec};
        names += (names.empty() ? "" : ", ") + spec.name;
    }
    std::fprintf(stderr, "PEP_BENCH_ONLY=%s: expected one of %s\n", only,
                 names.c_str());
    std::exit(2);
}

vm::SimParams
defaultParams()
{
    return vm::SimParams{};
}

Prepared
prepare(const workload::WorkloadSpec &spec, const vm::SimParams &params)
{
    Prepared prepared;
    prepared.spec = spec;
    prepared.program = workload::generateWorkload(spec);
    vm::Machine recorder(prepared.program, params);
    recorder.runIteration();
    prepared.advice = recorder.recordAdvice();
    return prepared;
}

ReplayRun::ReplayRun(const Prepared &prepared,
                     const vm::SimParams &params)
    : advice_(prepared.advice)
{
    machine_ = std::make_unique<vm::Machine>(prepared.program, params);
    machine_->enableReplay(&advice_);
}

core::PepProfiler &
ReplayRun::attachPep(std::unique_ptr<core::SamplingController> controller,
                     const core::PepOptions &options,
                     bool drives_optimization)
{
    controllers_.push_back(std::move(controller));
    peps_.push_back(std::make_unique<core::PepProfiler>(
        *machine_, *controllers_.back(), options));
    core::PepProfiler &pep = *peps_.back();
    machine_->addHooks(&pep);
    machine_->addCompileObserver(&pep);
    if (drives_optimization)
        machine_->setLayoutSource(&pep);
    return pep;
}

core::FullPathProfiler &
ReplayRun::attachFullPath(profile::DagMode mode, bool charge_costs,
                          core::PathStoreKind store)
{
    fulls_.push_back(std::make_unique<core::FullPathProfiler>(
        *machine_, mode, charge_costs,
        profile::NumberingScheme::BallLarus, store));
    core::FullPathProfiler &profiler = *fulls_.back();
    machine_->addHooks(&profiler);
    machine_->addCompileObserver(&profiler);
    return profiler;
}

core::InstrEdgeProfiler &
ReplayRun::attachInstrEdge(bool charge_costs)
{
    instrEdges_.push_back(std::make_unique<core::InstrEdgeProfiler>(
        *machine_, charge_costs));
    core::InstrEdgeProfiler &profiler = *instrEdges_.back();
    machine_->addHooks(&profiler);
    return profiler;
}

void
ReplayRun::setLayoutSource(vm::LayoutSource *source)
{
    machine_->setLayoutSource(source);
}

std::uint64_t
ReplayRun::runCompileIteration()
{
    return machine_->runIteration();
}

void
ReplayRun::clearCollectedProfiles()
{
    for (auto &pep : peps_)
        pep->clearProfiles();
    for (auto &full : fulls_)
        full->clearPathProfiles();
    for (auto &instr_edge : instrEdges_)
        instr_edge->clear();
    machine_->clearTruth();
}

std::uint64_t
ReplayRun::runMeasuredIteration()
{
    return machine_->runIteration();
}

std::uint64_t
ReplayRun::runStandard()
{
    runCompileIteration();
    clearCollectedProfiles();
    return runMeasuredIteration();
}

std::vector<bytecode::MethodCfg>
allCfgs(const vm::Machine &machine)
{
    std::vector<bytecode::MethodCfg> cfgs;
    cfgs.reserve(machine.numMethods());
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        cfgs.push_back(
            machine.info(static_cast<bytecode::MethodId>(m)).cfg);
    }
    return cfgs;
}

AccuracyResult
runAccuracy(const Prepared &prepared, const vm::SimParams &params,
            std::uint32_t samples, std::uint32_t stride,
            bool full_arnold_grove)
{
    ReplayRun run(prepared, params);
    std::unique_ptr<core::SamplingController> controller;
    if (full_arnold_grove) {
        controller =
            std::make_unique<core::FullArnoldGrove>(samples, stride);
    } else {
        controller = std::make_unique<core::SimplifiedArnoldGrove>(
            samples, stride);
    }
    core::PepProfiler &pep = run.attachPep(std::move(controller));
    core::FullPathProfiler &truth = run.attachFullPath(
        profile::DagMode::HeaderSplit, /*charge_costs=*/false);
    core::InstrEdgeProfiler &instr_edge =
        run.attachInstrEdge(/*charge_costs=*/false);

    run.runCompileIteration();
    run.clearCollectedProfiles();
    run.runMeasuredIteration();

    AccuracyResult result;
    result.pepPaths = metrics::canonicalize(pep);
    result.truthPaths = metrics::canonicalize(truth);
    result.pepEdges = pep.edgeProfile();
    result.perfectEdges = core::edgeProfileFromPaths(run.machine(),
                                                     truth);
    result.instrEdges = instr_edge.edges();
    result.cfgs = allCfgs(run.machine());
    result.pepStats = pep.pepStats();
    return result;
}

std::string
pct(double fraction, int decimals)
{
    return support::formatPercent(fraction, decimals);
}

std::string
overheadPct(double ratio)
{
    return support::formatOverhead(ratio);
}

} // namespace pep::bench
