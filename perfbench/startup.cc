/**
 * @file
 * The `startup` workload: cold adaptive runs of many short-lived
 * programs, the 15 suite shapes under 8 seeds each at the suite's
 * floor of 20 outer iterations. Every operation constructs a fresh
 * machine and runs main() once, so compile work is visible: vm compile
 * and translation, profile plan building and, with PEP driving
 * optimization, the opt pipeline. A plain adaptive run (no PEP, no
 * pipeline) is the baseline.
 */

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

/** What one cold run left behind. */
struct Observed
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t invocations = 0;
    std::vector<std::int32_t> globals;
    profile::EdgeProfileSet truth;

    /**
     * Globals, invocation counts and bytecode-level branch counts. A
     * cloned version executes synthesized gotos and keeps no counts for
     * non-branch edges, so instruction counts and the other edges are
     * compared only when neither run had the pipeline.
     */
    bool
    sameObservables(const Observed &other, const vm::Machine &machine,
                    bool exact) const
    {
        return invocations == other.invocations &&
               globals == other.globals &&
               (exact ? instructions == other.instructions &&
                            sameEdges(truth, other.truth)
                      : sameBranchCounts(machine, truth, other.truth));
    }
};

Observed
observe(Rig &rig)
{
    Observed observed;
    const vm::Machine &machine = rig.machine();
    observed.cycles = machine.now();
    observed.instructions = machine.stats().instructionsExecuted;
    observed.invocations = machine.stats().methodInvocations;
    observed.globals = machine.globals();
    observed.truth = machine.truthEdges();
    return observed;
}

class Startup final : public Workload
{
  public:
    explicit Startup(const Options &options) : options_(options)
    {
        // Ticks ten times as often as the default, so that runs this
        // short promote their hot methods to the optimizing tiers (and
        // PEP and the pipeline have opt-tier compiles to act on).
        base_.tickCycles = 250'000;
        // The programs are fixed; the seed draws their Irnd streams.
        base_.rngSeed = deriveSeed(options.seed, 0x57a7);
    }

    void
    setup(const std::vector<Config> &configs, Tracer &tracer) override
    {
        configs_ = configs;
        const int seeds = options_.tiny ? 1 : 8;
        const Clock::time_point start = Clock::now();
        for (const workload::WorkloadSpec &shape :
             workload::scaledSuite(0.01)) {
            for (int s = 0; s < seeds; ++s) {
                workload::WorkloadSpec spec = shape;
                spec.seed = shape.seed * 16 + static_cast<std::uint64_t>(s);
                spec.name = shape.name + "#" + std::to_string(s);
                const int span = tracer.begin("workload.generate");
                programs_.push_back(workload::generateWorkload(spec));
                tracer.end(span);
                names_.push_back(spec.name);
            }
        }
        generateSeconds_ = secondsSince(start);
    }

    std::vector<Sample>
    round(Report &report) override
    {
        std::vector<Sample> samples(configs_.size());
        for (Sample &sample : samples)
            sample.groupWall.assign(programs_.size(), 0.0);
        const bool first_round = firstRound_.empty();
        firstRound_.resize(configs_.size());
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            Observed first;
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                const Clock::time_point start = Clock::now();
                Rig rig(programs_[p], configs_[c], base_);
                rig.machine().runIteration();
                const double wall = secondsSince(start);
                samples[c].wall += wall;
                samples[c].groupWall[p] = wall;
                samples[c].ops.add(wall * 1e6);
                samples[c].counters.add(rig.counters());

                Observed observed = observe(rig);
                if (c == 0) {
                    first = observed;
                } else {
                    report.check(observed.sameObservables(
                                     first, rig.machine(),
                                     !configs_[c].pipeline),
                                 "startup " + names_[p] + ": " +
                                     configs_[c].name() +
                                     " changed an observable");
                }
                // A cold run is a pure function of its program.
                if (first_round) {
                    firstRound_[c].push_back(std::move(observed));
                } else {
                    report.check(observed.cycles ==
                                     firstRound_[c][p].cycles,
                                 "startup " + names_[p] + ": " +
                                     configs_[c].name() +
                                     " cycles differ between rounds");
                }
            }
        }
        return samples;
    }

    double
    throughputRep(const std::vector<Sample> &samples, Report &) override
    {
        const Sample &pep = samples[pepIndex()];
        return static_cast<double>(pep.ops.count()) / pep.wall;
    }

    void
    verify(Report &report) override
    {
        // The switch engine is the reference interpreter.
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            if (configs_[c].prof != Prof::None &&
                configs_[c].prof != Prof::Pep)
                continue;
            Config reference = configs_[c];
            reference.engine = vm::EngineKind::Switch;
            reference.fuse = vm::FuseOptions{};
            reference.counted = false;
            vm::SimParams params = base_;
            if (options_.injectDivergence)
                params.rngSeed += 1;
            for (std::size_t p = 0; p < programs_.size(); ++p) {
                Rig rig(programs_[p], reference, params);
                rig.machine().runIteration();
                const Observed want = observe(rig);
                const Observed &got = firstRound_[c][p];
                report.check(want.cycles == got.cycles &&
                                 want.sameObservables(got, rig.machine(),
                                                      true),
                             "startup " + names_[p] + ": " +
                                 configs_[c].name() +
                                 " differs from the switch reference");
            }
        }

        const std::size_t pep = pepIndex();
        std::vector<double> ratios;
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            ratios.push_back(static_cast<double>(firstRound_[pep][p].cycles) /
                             static_cast<double>(firstRound_[0][p].cycles));
        }
        report.metric("cycle_ratio", geomean(ratios), "ratio");

        // PEP's profiles against perfect ones from a free ground-truth
        // profiler, in a cold run without the pipeline:
        // core::edgeProfileFromPaths cannot fold the paths of a cloned
        // version back onto the bytecode CFG.
        std::vector<double> overlaps;
        std::vector<double> accuracies;
        Config profiled;
        profiled.prof = Prof::Pep;
        for (const bytecode::Program &program : programs_) {
            Rig rig(program, profiled, base_);
            core::FullPathProfiler truth(rig.machine(),
                                         profile::DagMode::HeaderSplit,
                                         /*charge_costs=*/false);
            rig.machine().addHooks(&truth);
            rig.machine().addCompileObserver(&truth);
            rig.machine().runIteration();
            const profile::EdgeProfileSet perfect =
                core::edgeProfileFromPaths(rig.machine(), truth);
            overlaps.push_back(metrics::relativeOverlap(
                bench::allCfgs(rig.machine()), perfect,
                rig.pep()->edgeProfile()));
            accuracies.push_back(
                metrics::wallPathAccuracy(metrics::canonicalize(truth),
                                          metrics::canonicalize(*rig.pep()))
                    .accuracy);
        }
        report.metric("edge_overlap", mean(overlaps), "fraction");
        report.metric("path_accuracy", mean(accuracies), "fraction");
    }

    std::vector<const bytecode::Program *>
    programs() const override
    {
        std::vector<const bytecode::Program *> result;
        for (const bytecode::Program &program : programs_)
            result.push_back(&program);
        return result;
    }

    void
    layerProbes(Report &report, Tracer &tracer) override
    {
        report.metric("workload.generate_ms",
                      generateSeconds_ /
                          static_cast<double>(programs_.size()) * 1e3,
                      "ms");
        report.metric("workload.advice_record_ms", 0.0, "ms");
        double seconds = 0.0;
        std::uint64_t paths = 0;
        for (const bytecode::Program &program : programs_) {
            Rig rig(program, configs_[pepIndex()], base_);
            rig.machine().runIteration();
            probeExpansion(*rig.pep(), tracer, seconds, paths);
        }
        report.metric("profile.expand_us",
                      paths ? seconds / static_cast<double>(paths) * 1e6
                            : 0.0,
                      "us");
        reportNoRuntime(report);
    }

  private:
    /** The PEP configuration that drives optimization. */
    std::size_t
    pepIndex() const
    {
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            if (configs_[c].prof == Prof::Pep && configs_[c].pipeline)
                return c;
        }
        return 0;
    }

    Options options_;
    vm::SimParams base_;
    std::vector<Config> configs_;
    std::vector<bytecode::Program> programs_;
    std::vector<std::string> names_;

    /** Observables of the first round, [config][program]. */
    std::vector<std::vector<Observed>> firstRound_;
    double generateSeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeStartup(const Options &options)
{
    return std::make_unique<Startup>(options);
}

} // namespace perfbench
