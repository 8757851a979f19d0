/**
 * @file
 * Continuous reoptimization table (docs/OPT.md), emitted as
 * BENCH_PR9.json: the paper's Figures 10-11 run *live*. A
 * phase-shifting workload executes under five layout policies:
 *
 *   - none        no profile; every branch keeps the built-in
 *                 fall-through prediction;
 *   - perfect     an oracle swaps in the current phase's true profile
 *                 at every phase boundary (upper bound);
 *   - one-time    the paper's one-time profile: phase A's profile
 *                 applied once and never refreshed — right until the
 *                 shift, stale after it;
 *   - continuous  the real subsystem: a windowed (EWMA) profile fed
 *                 from live execution drives the reoptimization
 *                 driver, which re-runs chain layout + cloning through
 *                 ordinary recompiles when the phase flips;
 *   - flipped     the anti-oracle (Section 6.5): each phase's profile
 *                 with every branch inverted — maximally wrong, and a
 *                 check that optimization is accuracy-sensitive.
 *
 * Gates (exit nonzero on violation):
 *   1. layout and cloning never change observable behaviour: globals,
 *      invocation counts, and bytecode-level branch counts are
 *      identical across all five policies and across both execution
 *      engines;
 *   2. perfect beats none;
 *   3. continuous recovers at least 80% of perfect's win over none;
 *   4. one-time degrades after the shift (its phase-B execution is
 *      worse than both its phase-A and continuous's phase-B) and loses
 *      to continuous overall;
 *   5. flipped is strictly the worst policy.
 *
 * Cycle comparisons use execution cycles (total minus compile), so the
 * adaptation *cost* — recompiles and their cycles — is reported
 * separately instead of blurring the layout effect.
 *
 * Usage: tab_relayout [output.json]   (default BENCH_PR9.json)
 * PEP_BENCH_SCALE scales the iteration count.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "opt/reopt_driver.hh"
#include "profile/edge_profile.hh"
#include "runtime/profile_window.hh"
#include "support/table.hh"
#include "vm/machine.hh"

using namespace pep;

namespace {

/** Iterations per phase boundary, from PEP_BENCH_SCALE. */
struct Shape
{
    std::uint32_t total = 60;
    std::uint32_t split = 30;
    std::uint32_t inner = 2000;
};

Shape
benchShape()
{
    double scale = 1.0;
    if (const char *env = std::getenv("PEP_BENCH_SCALE")) {
        const double parsed = std::atof(env);
        if (parsed > 0.0 && parsed <= 1.0)
            scale = parsed;
    }
    Shape shape;
    shape.total = std::max<std::uint32_t>(
        8, static_cast<std::uint32_t>(60.0 * scale));
    shape.split = shape.total / 2;
    shape.inner = std::max<std::uint32_t>(
        200, static_cast<std::uint32_t>(2000.0 * scale));
    return shape;
}

/**
 * The phase-shifting workload. Each main invocation bumps g0 and runs
 * a hot inner loop with two opposed phase-biased diamonds: diamond 1
 * takes while g0 <= SPLIT (phase A), diamond 2 takes after (phase B).
 * The built-in prediction (fall-through) is right on exactly one of
 * them in each phase, a current profile on both, a stale or flipped
 * one on neither.
 */
bytecode::Program
phasedProgram(const Shape &shape)
{
    char source[1024];
    std::snprintf(source, sizeof source, R"(
.globals 2
.method main 0 1
    iconst 0
    gload
    iconst 1
    iadd
    iconst 0
    gstore
    iconst %u
    istore 0
loop:
    iload 0
    ifle done
    iconst 0
    gload
    iconst %u
    if_icmple take1
    iconst 1
    gload
    iconst 3
    iadd
    iconst 1
    gstore
    goto join1
take1:
    iconst 1
    gload
    iconst 2
    iadd
    iconst 1
    gstore
join1:
    iconst 0
    gload
    iconst %u
    if_icmpgt take2
    iconst 1
    gload
    iconst 1
    iadd
    iconst 1
    gstore
    goto join2
take2:
    iconst 1
    gload
    iconst 5
    iadd
    iconst 1
    gstore
join2:
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)",
                  shape.inner, shape.split, shape.split);
    const bytecode::AssembleResult assembled =
        bytecode::assemble(source);
    if (!assembled.ok) {
        std::fprintf(stderr, "tab_relayout: bad program: %s\n",
                     assembled.error.c_str());
        std::exit(1);
    }
    return assembled.program;
}

/** Serves whatever snapshot is currently plugged in. */
class SnapshotConsumer final : public opt::ProfileConsumer
{
  public:
    void use(const profile::EdgeProfileSet *set) { set_ = set; }

    const profile::MethodEdgeProfile *
    edges(bytecode::MethodId method) override
    {
        if (set_ == nullptr || method >= set_->perMethod.size())
            return nullptr;
        const profile::MethodEdgeProfile &p = set_->perMethod[method];
        return p.totalCount() > 0 ? &p : nullptr;
    }

  private:
    const profile::EdgeProfileSet *set_ = nullptr;
};

/** counts(after) - counts(before), as a profile set. */
profile::EdgeProfileSet
diffProfiles(const std::vector<const bytecode::MethodCfg *> &cfgs,
             const profile::EdgeProfileSet &before,
             const profile::EdgeProfileSet &after)
{
    profile::EdgeProfileSet delta(cfgs);
    for (std::size_t m = 0; m < cfgs.size(); ++m) {
        const auto &a = after.perMethod[m].counts();
        const auto &b = before.perMethod[m].counts();
        for (cfg::BlockId blk = 0; blk < a.size(); ++blk) {
            for (std::uint32_t i = 0; i < a[blk].size(); ++i) {
                const std::uint64_t d = a[blk][i] - b[blk][i];
                if (d > 0)
                    delta.perMethod[m].addEdge(cfg::EdgeRef{blk, i}, d);
            }
        }
    }
    return delta;
}

profile::EdgeProfileSet
flipProfiles(const std::vector<const bytecode::MethodCfg *> &cfgs,
             const profile::EdgeProfileSet &set)
{
    profile::EdgeProfileSet flipped;
    for (std::size_t m = 0; m < cfgs.size(); ++m)
        flipped.perMethod.push_back(
            set.perMethod[m].flipped(*cfgs[m]));
    return flipped;
}

enum class Policy
{
    None,
    Perfect,
    OneTime,
    Continuous,
    Flipped,
};

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::None: return "none";
      case Policy::Perfect: return "perfect";
      case Policy::OneTime: return "one-time";
      case Policy::Continuous: return "continuous";
      case Policy::Flipped: return "flipped";
    }
    return "?";
}

struct PolicyResult
{
    std::uint64_t phaseAExec = 0;
    std::uint64_t phaseBExec = 0;
    std::uint64_t compileCycles = 0;
    std::uint64_t layoutMisses = 0;
    std::uint64_t recompiles = 0;
    std::uint64_t clones = 0;

    /** Observable state, for the identity gates. */
    std::vector<std::int32_t> globals;
    std::uint64_t invocations = 0;
    std::vector<std::vector<std::uint64_t>> branchCounts;

    std::uint64_t
    totalExec() const
    {
        return phaseAExec + phaseBExec;
    }
};

/** Per-branch-block ground-truth rows (well-defined under cloning:
 *  synthesized frames record exactly these rows). */
std::vector<std::vector<std::uint64_t>>
branchRows(const vm::Machine &machine)
{
    std::vector<std::vector<std::uint64_t>> rows;
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const auto method = static_cast<bytecode::MethodId>(m);
        const bytecode::MethodCfg &cfg = machine.info(method).cfg;
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            const auto kind = cfg.terminator[b];
            if (kind == bytecode::TerminatorKind::Cond ||
                kind == bytecode::TerminatorKind::Switch) {
                rows.push_back(
                    machine.truthEdges().perMethod[m].counts()[b]);
            }
        }
    }
    return rows;
}

PolicyResult
runPolicy(Policy policy, const bytecode::Program &program,
          const Shape &shape, vm::EngineKind engine,
          const profile::EdgeProfileSet &phaseA,
          const profile::EdgeProfileSet &phaseB)
{
    vm::SimParams params;
    params.engine = engine;
    vm::Machine machine(program, params);

    std::vector<const bytecode::MethodCfg *> cfgs;
    for (std::size_t m = 0; m < machine.numMethods(); ++m)
        cfgs.push_back(
            &machine.info(static_cast<bytecode::MethodId>(m)).cfg);

    const profile::EdgeProfileSet phaseAFlipped =
        flipProfiles(cfgs, phaseA);
    const profile::EdgeProfileSet phaseBFlipped =
        flipProfiles(cfgs, phaseB);

    SnapshotConsumer snapshots;
    runtime::WindowedProfile window(cfgs, /*decay=*/0.5);
    opt::WindowedProfileConsumer windowed(machine, window);

    const bool uses_pipeline = policy != Policy::None;
    opt::ProfileConsumer &consumer =
        policy == Policy::Continuous
            ? static_cast<opt::ProfileConsumer &>(windowed)
            : static_cast<opt::ProfileConsumer &>(snapshots);
    opt::OptPipeline pipeline(consumer);
    if (uses_pipeline)
        machine.addCompilePass(&pipeline);

    switch (policy) {
      case Policy::Perfect:
      case Policy::OneTime:
        snapshots.use(&phaseA);
        break;
      case Policy::Flipped:
        snapshots.use(&phaseAFlipped);
        break;
      default:
        break;
    }
    machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);

    opt::ReoptDriver driver(machine, window);

    PolicyResult result;
    profile::EdgeProfileSet lastTruth = machine.truthEdges();
    std::uint64_t exec_mark = 0;
    std::uint64_t compile_mark = machine.stats().compileCycles;
    for (std::uint32_t it = 0; it < shape.total; ++it) {
        if (it == shape.split) {
            // Phase boundary: the oracle (and the anti-oracle) swap in
            // the new phase's profile; continuous must *discover* the
            // shift from its window instead.
            if (policy == Policy::Perfect) {
                snapshots.use(&phaseB);
                machine.compileNow(program.mainMethod,
                                   vm::OptLevel::Opt2);
            } else if (policy == Policy::Flipped) {
                snapshots.use(&phaseBFlipped);
                machine.compileNow(program.mainMethod,
                                   vm::OptLevel::Opt2);
            }
            const std::uint64_t compiled = machine.stats().compileCycles;
            result.phaseAExec = exec_mark;
            exec_mark = 0;
            compile_mark = compiled;
        }
        const std::uint64_t cycles = machine.runIteration();
        const std::uint64_t compiled = machine.stats().compileCycles;
        exec_mark += cycles - (compiled - compile_mark);
        compile_mark = compiled;

        if (policy == Policy::Continuous) {
            // Feed the window from this iteration's executed edges —
            // the deterministic stand-in for a transport drain — and
            // let the driver look for a phase change.
            const profile::EdgeProfileSet now = machine.truthEdges();
            const profile::EdgeProfileSet delta =
                diffProfiles(cfgs, lastTruth, now);
            for (std::size_t m = 0; m < cfgs.size(); ++m) {
                const auto &counts = delta.perMethod[m].counts();
                for (cfg::BlockId b = 0; b < counts.size(); ++b)
                    for (std::uint32_t i = 0; i < counts[b].size(); ++i)
                        if (counts[b][i] > 0)
                            window.addEdge(
                                static_cast<bytecode::MethodId>(m),
                                cfg::EdgeRef{b, i}, counts[b][i]);
            }
            window.advance();
            driver.poll();
            // Recompiles inside poll() land in the cycle counter but
            // in no iteration's return; resync so the next iteration's
            // compile delta matches what its return actually charged.
            compile_mark = machine.stats().compileCycles;
            lastTruth = std::move(now);
        }
    }
    result.phaseBExec = exec_mark;

    result.compileCycles = machine.stats().compileCycles;
    result.layoutMisses = machine.stats().layoutMisses;
    result.recompiles = policy == Policy::Continuous
                            ? driver.stats().recompiles
                            : machine.stats().compiles;
    result.clones = pipeline.stats().clonesApplied;
    result.globals = machine.globals();
    result.invocations = machine.stats().methodInvocations;
    result.branchCounts = branchRows(machine);
    return result;
}

bool
sameObservables(const PolicyResult &a, const PolicyResult &b)
{
    return a.globals == b.globals && a.invocations == b.invocations &&
           a.branchCounts == b.branchCounts;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_PR9.json";
    const Shape shape = benchShape();
    const bytecode::Program program = phasedProgram(shape);

    // Oracle profiles: one plain run, split at the phase boundary.
    std::vector<const bytecode::MethodCfg *> cfgs;
    profile::EdgeProfileSet phaseA;
    profile::EdgeProfileSet phaseB;
    {
        vm::Machine probe(program, vm::SimParams{});
        for (std::size_t m = 0; m < probe.numMethods(); ++m)
            cfgs.push_back(
                &probe.info(static_cast<bytecode::MethodId>(m)).cfg);
        for (std::uint32_t it = 0; it < shape.split; ++it)
            probe.runIteration();
        phaseA = probe.truthEdges();
        for (std::uint32_t it = shape.split; it < shape.total; ++it)
            probe.runIteration();
        phaseB = diffProfiles(cfgs, phaseA, probe.truthEdges());
    }

    const Policy policies[] = {Policy::None, Policy::Perfect,
                               Policy::OneTime, Policy::Continuous,
                               Policy::Flipped};
    PolicyResult results[std::size(policies)];
    for (std::size_t p = 0; p < std::size(policies); ++p) {
        results[p] =
            runPolicy(policies[p], program, shape,
                      vm::EngineKind::Switch, phaseA, phaseB);
    }
    const PolicyResult &none = results[0];
    const PolicyResult &perfect = results[1];
    const PolicyResult &onetime = results[2];
    const PolicyResult &continuous = results[3];
    const PolicyResult &flipped = results[4];

    support::Table table;
    table.header({"policy", "phaseA", "phaseB", "total", "misses",
                  "recompiles", "clones", "compile"});
    for (std::size_t p = 0; p < std::size(policies); ++p) {
        const PolicyResult &r = results[p];
        table.row({policyName(policies[p]),
                   std::to_string(r.phaseAExec),
                   std::to_string(r.phaseBExec),
                   std::to_string(r.totalExec()),
                   std::to_string(r.layoutMisses),
                   std::to_string(r.recompiles),
                   std::to_string(r.clones),
                   std::to_string(r.compileCycles)});
    }
    std::printf("continuous reoptimization: live Figures 10-11 "
                "(docs/OPT.md)\n\n%s\n",
                table.str().c_str());

    int failures = 0;
    const auto gate = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "tab_relayout: GATE FAILED: %s\n",
                         what);
            ++failures;
        }
    };

    // Gate 1: layout is a performance plan, never semantics.
    for (std::size_t p = 1; p < std::size(policies); ++p)
        gate(sameObservables(results[0], results[p]),
             "policies diverge in observable behaviour");
    const PolicyResult threaded =
        runPolicy(Policy::Continuous, program, shape,
                  vm::EngineKind::Threaded, phaseA, phaseB);
    gate(sameObservables(continuous, threaded),
         "engines diverge under continuous reoptimization");

    // Gate 2: a correct profile wins.
    gate(perfect.totalExec() < none.totalExec(),
         "perfect does not beat none");

    // Gate 3: continuous recovers >= 80% of perfect's win. The
    // driver's adaptation lag is a fixed few epochs (warm-up plus the
    // two-step crossing of the window), so the recovery fraction is
    // only meaningful when the phases are long enough to amortize it;
    // at smoke scale the gate degrades to "still beats none".
    const double perfect_win =
        static_cast<double>(none.totalExec()) -
        static_cast<double>(perfect.totalExec());
    const double continuous_win =
        static_cast<double>(none.totalExec()) -
        static_cast<double>(continuous.totalExec());
    if (shape.total >= 40) {
        gate(perfect_win > 0 && continuous_win >= 0.8 * perfect_win,
             "continuous recovers < 80% of perfect's win");
    } else {
        gate(perfect_win > 0 && continuous_win > 0,
             "continuous does not beat none");
    }

    // Gate 4: the one-time profile goes stale at the shift.
    gate(onetime.phaseBExec > onetime.phaseAExec,
         "one-time did not degrade after the phase shift");
    gate(onetime.phaseBExec > continuous.phaseBExec,
         "one-time is not worse than continuous after the shift");
    gate(onetime.totalExec() > continuous.totalExec(),
         "one-time is not worse than continuous overall");

    // Gate 5: a maximally wrong profile is strictly the worst.
    for (std::size_t p = 0; p + 1 < std::size(policies); ++p)
        gate(flipped.totalExec() > results[p].totalExec(),
             "flipped is not strictly the worst policy");

    FILE *json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "tab_relayout: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"iterations\": %u,\n  \"phase_split\": %u,\n"
                 "  \"inner_loop\": %u,\n  \"policies\": [\n",
                 shape.total, shape.split, shape.inner);
    for (std::size_t p = 0; p < std::size(policies); ++p) {
        const PolicyResult &r = results[p];
        std::fprintf(
            json,
            "    {\"policy\": \"%s\", \"phase_a_cycles\": %llu, "
            "\"phase_b_cycles\": %llu, \"total_cycles\": %llu, "
            "\"layout_misses\": %llu, \"recompiles\": %llu, "
            "\"clones\": %llu, \"compile_cycles\": %llu}%s\n",
            policyName(policies[p]),
            static_cast<unsigned long long>(r.phaseAExec),
            static_cast<unsigned long long>(r.phaseBExec),
            static_cast<unsigned long long>(r.totalExec()),
            static_cast<unsigned long long>(r.layoutMisses),
            static_cast<unsigned long long>(r.recompiles),
            static_cast<unsigned long long>(r.clones),
            static_cast<unsigned long long>(r.compileCycles),
            p + 1 < std::size(policies) ? "," : "");
    }
    const double recovery =
        perfect_win > 0 ? continuous_win / perfect_win : 0.0;
    std::fprintf(json,
                 "  ],\n  \"continuous_recovery\": %.4f,\n"
                 "  \"gates_failed\": %d\n}\n",
                 recovery, failures);
    std::fclose(json);
    std::printf("tab_relayout: continuous recovered %.1f%% of "
                "perfect's win; results in %s\n",
                100.0 * recovery, json_path.c_str());
    return failures == 0 ? 0 : 1;
}
