/**
 * @file
 * The `replay` workload: the paper's replay methodology over all 15
 * suite programs. Advice recording and iteration 1 (compile + execute)
 * are set-up; every round then runs one more measured iteration of
 * each program under each configuration. No compiling happens in the
 * timed region, so the time goes to vm dispatch and core path-register
 * instrumentation.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "common/harness.hh"
#include "metrics/overlap.hh"
#include "metrics/path_accuracy.hh"
#include "workload/suite.hh"

namespace perfbench {

namespace {

/** What iteration 2 of one program left behind under one config. */
struct Observed
{
    std::uint64_t cycles1 = 0;
    std::uint64_t cycles2 = 0;
    std::uint64_t instructions = 0;
    std::uint64_t invocations = 0;
    std::vector<std::int32_t> globals;
    profile::EdgeProfileSet truth;
};

class Replay final : public Workload
{
  public:
    explicit Replay(const Options &options) : options_(options) {}

    void
    setup(const std::vector<Config> &configs, Tracer &tracer) override
    {
        configs_ = configs;
        // The suite's own programs; the seed draws each program's Irnd
        // stream, its input data. Deriving the programs themselves from
        // the seed would make per-operation times measure program size.
        const std::vector<workload::WorkloadSpec> specs =
            workload::scaledSuite(options_.tiny ? 0.02 : 1.0);
        prepared_.resize(specs.size());
        for (std::size_t p = 0; p < specs.size(); ++p) {
            bench::Prepared &prepared = prepared_[p];
            prepared.spec = specs[p];
            const vm::SimParams params = paramsFor(p);
            Clock::time_point start = Clock::now();
            int span = tracer.begin("workload.generate");
            prepared.program = workload::generateWorkload(specs[p]);
            tracer.end(span);
            generateSeconds_ += secondsSince(start);

            start = Clock::now();
            span = tracer.begin("workload.advice_record");
            vm::Machine recorder(prepared.program, params);
            recorder.runIteration();
            prepared.advice = recorder.recordAdvice();
            tracer.end(span);
            adviceSeconds_ += secondsSince(start);
        }

        rigs_.resize(configs.size());
        observed_.resize(configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            for (std::size_t p = 0; p < prepared_.size(); ++p) {
                rigs_[c].push_back(std::make_unique<Rig>(
                    prepared_[p].program, configs[c], paramsFor(p),
                    &prepared_[p].advice));
                observed_[c].push_back(runTwoIterations(*rigs_[c].back()));
            }
        }
    }

    std::vector<Sample>
    round(Report &report) override
    {
        std::vector<Sample> samples(configs_.size());
        for (Sample &sample : samples)
            sample.groupWall.assign(prepared_.size(), 0.0);
        for (std::size_t p = 0; p < prepared_.size(); ++p) {
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                Rig &rig = *rigs_[c][p];
                const Counters before = rig.counters();
                const Clock::time_point start = Clock::now();
                rig.machine().runIteration();
                const double wall = secondsSince(start);
                samples[c].wall += wall;
                samples[c].groupWall[p] = wall;
                samples[c].ops.add(wall * 1e6);
                samples[c].counters.add(minus(rig.counters(), before));
            }
            // Every configuration must leave the same observables.
            const vm::Machine &first = rigs_[0][p]->machine();
            for (std::size_t c = 1; c < configs_.size(); ++c) {
                const vm::Machine &other = rigs_[c][p]->machine();
                report.check(
                    other.globals() == first.globals() &&
                        other.stats().instructionsExecuted ==
                            first.stats().instructionsExecuted &&
                        other.stats().methodInvocations ==
                            first.stats().methodInvocations &&
                        sameEdges(other.truthEdges(), first.truthEdges()),
                    "replay " + prepared_[p].spec.name + ": " +
                        configs_[c].name() + " diverged from " +
                        configs_[0].name());
            }
        }
        return samples;
    }

    double
    throughputRep(const std::vector<Sample> &samples, Report &) override
    {
        const Sample &pep = samples[std::min<std::size_t>(1, samples.size() - 1)];
        return static_cast<double>(pep.ops.count()) / pep.wall;
    }

    void
    verify(Report &report) override
    {
        // The switch engine is the reference interpreter: the measured
        // rigs' first two iterations must match it exactly.
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            if (configs_[c].prof != Prof::None &&
                configs_[c].prof != Prof::Pep)
                continue;
            Config reference = configs_[c];
            reference.engine = vm::EngineKind::Switch;
            reference.fuse = vm::FuseOptions{};
            reference.counted = false;
            for (std::size_t p = 0; p < prepared_.size(); ++p) {
                vm::SimParams params = paramsFor(p);
                if (options_.injectDivergence)
                    params.rngSeed += 1;
                Rig rig(prepared_[p].program, reference, params,
                        &prepared_[p].advice);
                const Observed want = runTwoIterations(rig);
                const Observed &got = observed_[c][p];
                report.check(want.cycles1 == got.cycles1 &&
                                 want.cycles2 == got.cycles2 &&
                                 want.instructions == got.instructions &&
                                 want.invocations == got.invocations &&
                                 want.globals == got.globals &&
                                 sameEdges(want.truth, got.truth),
                             "replay " + prepared_[p].spec.name + ": " +
                                 configs_[c].name() +
                                 " differs from the switch reference");
            }
        }

        // PEP must not change observables, only cycles.
        std::vector<double> cycle_ratios;
        const std::size_t pep = pepIndex();
        for (std::size_t p = 0; p < prepared_.size(); ++p) {
            const Observed &a = observed_[0][p];
            const Observed &b = observed_[pep][p];
            report.check(a.globals == b.globals &&
                             a.instructions == b.instructions &&
                             a.invocations == b.invocations &&
                             sameEdges(a.truth, b.truth),
                         "replay " + prepared_[p].spec.name +
                             ": PEP changed an observable");
            cycle_ratios.push_back(static_cast<double>(b.cycles2) /
                                   static_cast<double>(a.cycles2));
        }
        report.metric("cycle_ratio", geomean(cycle_ratios), "ratio");

        // Profile accuracy against perfect profiles (Figures 8 and 9).
        std::vector<double> overlaps;
        std::vector<double> accuracies;
        for (std::size_t p = 0; p < prepared_.size(); ++p) {
            const bench::AccuracyResult result = bench::runAccuracy(
                prepared_[p], paramsFor(p), kPepSamples, kPepStride);
            overlaps.push_back(metrics::relativeOverlap(
                result.cfgs, result.perfectEdges, result.pepEdges));
            accuracies.push_back(
                metrics::wallPathAccuracy(result.truthPaths,
                                          result.pepPaths)
                    .accuracy);
        }
        report.metric("edge_overlap", mean(overlaps), "fraction");
        report.metric("path_accuracy", mean(accuracies), "fraction");
    }

    std::vector<const bytecode::Program *>
    programs() const override
    {
        std::vector<const bytecode::Program *> result;
        for (const bench::Prepared &prepared : prepared_)
            result.push_back(&prepared.program);
        return result;
    }

    void
    layerProbes(Report &report, Tracer &tracer) override
    {
        const double n = static_cast<double>(prepared_.size());
        report.metric("workload.generate_ms", generateSeconds_ / n * 1e3,
                      "ms");
        report.metric("workload.advice_record_ms", adviceSeconds_ / n * 1e3,
                      "ms");
        double seconds = 0.0;
        std::uint64_t paths = 0;
        for (const std::unique_ptr<Rig> &rig : rigs_[pepIndex()])
            probeExpansion(*rig->pep(), tracer, seconds, paths);
        report.metric("profile.expand_us",
                      paths ? seconds / static_cast<double>(paths) * 1e6
                            : 0.0,
                      "us");
        reportNoRuntime(report);
    }

  private:
    /** Pinned parameters with program p's Irnd seed. */
    vm::SimParams
    paramsFor(std::size_t p) const
    {
        vm::SimParams params = pinnedParams(Config{});
        params.rngSeed = deriveSeed(options_.seed, prepared_[p].spec.seed);
        return params;
    }

    std::size_t
    pepIndex() const
    {
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            if (configs_[c].prof == Prof::Pep && !configs_[c].counted)
                return c;
        }
        return 0;
    }

    /** Iteration 1 (compile + execute), clear, iteration 2. */
    static Observed
    runTwoIterations(Rig &rig)
    {
        Observed observed;
        vm::Machine &machine = rig.machine();
        observed.cycles1 = machine.runIteration();
        if (rig.pep())
            rig.pep()->clearProfiles();
        machine.clearTruth();
        const Counters before = rig.counters();
        observed.cycles2 = machine.runIteration();
        const Counters delta = minus(rig.counters(), before);
        observed.instructions = delta.instructions;
        observed.invocations = delta.invocations;
        observed.globals = machine.globals();
        observed.truth = machine.truthEdges();
        return observed;
    }

    Options options_;
    std::vector<Config> configs_;
    std::vector<bench::Prepared> prepared_;

    /** Indexed [config][program]. */
    std::vector<std::vector<std::unique_ptr<Rig>>> rigs_;
    std::vector<std::vector<Observed>> observed_;

    double generateSeconds_ = 0.0;
    double adviceSeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeReplay(const Options &options)
{
    return std::make_unique<Replay>(options);
}

} // namespace perfbench
