#include "testing/differ.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/diagnostics.hh"
#include "analysis/plan_check.hh"
#include "analysis/verify/realizability.hh"
#include "analysis/verify/verify.hh"
#include "bytecode/disassembler.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "profile/kpath.hh"
#include "runtime/coop_scheduler.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"
#include "support/panic.hh"
#include "testing/observables.hh"
#include "testing/oracle.hh"
#include "testing/service_oracle.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"

namespace pep::testing {

namespace {

/** Cap recorded violations so a badly broken run stays readable. */
constexpr std::size_t kMaxViolations = 20;

void
addViolation(DiffReport &report, const std::string &text)
{
    if (report.violations.size() < kMaxViolations) {
        report.violations.push_back(text);
    } else if (report.violations.size() == kMaxViolations) {
        report.violations.push_back("... further violations suppressed");
    }
}

std::string
keyName(core::VersionKey key)
{
    std::ostringstream os;
    os << "method " << key.first << " v" << key.second;
    return os.str();
}

/** The corrupt-increment fault: bump the first nonzero,
 *  non-path-ending increment of every not-yet-corrupted enabled plan
 *  of the full profiler. Idempotent per version. */
void
corruptIncrements(core::FullPathProfiler &full,
                  std::set<core::VersionKey> &done)
{
    for (auto &[key, vp] : full.versionProfiles()) {
        if (!vp->state || !vp->state->plan.enabled)
            continue;
        if (!done.insert(key).second)
            continue;
        for (profile::EdgeAction &action :
             vp->state->plan.flatEdgeActions) {
            if (action.increment != 0 && !action.endsPath) {
                ++action.increment;
                break;
            }
        }
    }
}

/** Branch counts of one original CFG, keyed by (block, successor
 *  index) — the coordinate space both clone folds land in. */
using FoldedBranchCounts =
    std::map<std::pair<cfg::BlockId, std::uint32_t>, std::uint64_t>;

/**
 * Fold a cloned version's segment counts onto its root method's CFG:
 * every Cond/Switch edge of the synthesized CFG contributes its count
 * to the origin block's same-index edge, exactly the interpreter's
 * ground-truth convention for synthesized frames. Edges whose origin
 * is invalid or foreign fold nowhere — which is precisely what
 * check 9's count-for-count comparison exposes.
 */
FoldedBranchCounts
foldBranchCounts(const SegmentCounts &segments,
                 const bytecode::MethodCfg &version_cfg,
                 const std::vector<vm::BlockOrigin> &origin,
                 bytecode::MethodId root)
{
    FoldedBranchCounts folded;
    for (const auto &[seq, count] : segments) {
        for (const std::uint64_t encoded : seq) {
            const cfg::BlockId src =
                static_cast<cfg::BlockId>(encoded >> 32);
            const auto index =
                static_cast<std::uint32_t>(encoded & 0xffffffffull);
            if (src >= version_cfg.graph.numBlocks())
                continue;
            const auto kind = version_cfg.terminator[src];
            if (kind != bytecode::TerminatorKind::Cond &&
                kind != bytecode::TerminatorKind::Switch)
                continue;
            if (src >= origin.size())
                continue;
            const vm::BlockOrigin &o = origin[src];
            if (!o.valid() || o.method != root)
                continue;
            folded[{o.block, index}] += count;
        }
    }
    return folded;
}

/**
 * The impossible-profile fault: bump one count of a PEP profiler's
 * recorded continuous edge profile. The extra crossing appears out of
 * nowhere — inflow and outflow no longer balance at the edge's source
 * block — so no execution could have recorded the resulting profile.
 * The static realizability pass (auditRun) must reject it.
 */
void
corruptPepEdgeProfile(const vm::Machine &machine,
                      core::PepProfiler &pep)
{
    profile::EdgeProfileSet &edges = pep.edgeProfileForInjection();
    for (std::size_t m = 0; m < edges.perMethod.size(); ++m) {
        const bytecode::MethodCfg &cfg =
            machine.info(static_cast<bytecode::MethodId>(m)).cfg;
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            if (!cfg.isCodeBlock(b) || cfg.isLoopHeader[b])
                continue;
            if (cfg.graph.succs(b).empty())
                continue;
            edges.perMethod[m].addEdge({b, 0}, 1);
            return;
        }
    }
}

/** Two edge profiles must be equal; names the first method that
 *  differs. */
void
checkEdgeTablesEqual(const profile::EdgeProfileSet &got,
                     const profile::EdgeProfileSet &want,
                     const std::string &what, DiffReport &report)
{
    if (got == want)
        return;
    const auto first = std::mismatch(got.perMethod.begin(),
                                     got.perMethod.end(),
                                     want.perMethod.begin(),
                                     want.perMethod.end())
                           .first;
    addViolation(report, what + ": method " +
                             std::to_string(first - got.perMethod.begin()) +
                             " edge counts diverge from ground truth");
}

/** got[e] <= bound[e] for every edge. */
void
checkEdgeTablesBounded(const profile::EdgeProfileSet &got,
                       const profile::EdgeProfileSet &bound,
                       const std::string &what, DiffReport &report)
{
    for (std::size_t m = 0; m < bound.perMethod.size(); ++m) {
        const auto &g = got.perMethod[m].counts();
        const auto &b = bound.perMethod[m].counts();
        for (std::size_t block = 0; block < b.size(); ++block) {
            for (std::size_t i = 0; i < b[block].size(); ++i) {
                if (g[block][i] > b[block][i]) {
                    std::ostringstream os;
                    os << what << ": method " << m << " edge " << block
                       << ':' << i << " count " << g[block][i]
                       << " exceeds ground truth " << b[block][i];
                    addViolation(report, os.str());
                }
            }
        }
    }
}

/**
 * Map an engine's number->count table for one version to exact segment
 * counts via its reconstructor. Out-of-range numbers and reconstruction
 * panics are violations (a corrupt register produces them). Composite
 * k-path ids expand to the concatenated CFG-edge sequence of their
 * window, which is exactly the oracle's key for that window; when
 * kEffective is 1, maxId() equals totalPaths and this degenerates to
 * the classic single-segment mapping.
 */
SegmentCounts
segmentsFromProfile(const core::MethodProfilingState &state,
                    const profile::MethodPathProfile &paths,
                    const std::string &what, DiffReport &report)
{
    SegmentCounts result;
    for (const auto &[number, record] : paths.paths()) {
        if (number >= state.kpath.maxId()) {
            std::ostringstream os;
            os << what << ": " << keyName({state.method, state.version})
               << " recorded path number " << number
               << " >= id space " << state.kpath.maxId()
               << " (totalPaths " << state.plan.totalPaths
               << ", kEffective " << state.kpath.kEffective() << ')';
            addViolation(report, os.str());
            continue;
        }
        try {
            const profile::ReconstructedPath path =
                profile::reconstructKPath(state.kpath,
                                          *state.reconstructor, number);
            result[encodeEdges(path.cfgEdges)] += record.count;
        } catch (const support::PanicError &e) {
            std::ostringstream os;
            os << what << ": " << keyName({state.method, state.version})
               << " path " << number
               << " failed reconstruction: " << e.what();
            addViolation(report, os.str());
        }
    }
    return result;
}

/**
 * The PEP profilers a differ machine runs — one per configured
 * sampling config, not yet attached — and, when the options ask for
 * it, the reoptimization pipeline fed by the first of them, installed
 * as a compile pass.
 */
struct PepStack
{
    std::vector<std::unique_ptr<core::SimplifiedArnoldGrove>> controllers;
    std::vector<std::unique_ptr<core::PepProfiler>> peps;
    std::unique_ptr<opt::PepConsumer> consumer;
    std::unique_ptr<opt::OptPipeline> pipeline;
};

PepStack
buildPepStack(vm::Machine &machine, const DiffOptions &opts)
{
    PepStack stack;
    core::PepOptions pep_options;
    pep_options.scheme = opts.scheme;
    pep_options.mode = opts.mode;
    pep_options.placement = opts.placement;
    pep_options.kIterations = opts.kIterations;
    for (const PepConfig &pc : opts.pepConfigs) {
        stack.controllers.push_back(
            std::make_unique<core::SimplifiedArnoldGrove>(pc.samples,
                                                          pc.stride));
        stack.peps.push_back(std::make_unique<core::PepProfiler>(
            machine, *stack.controllers.back(), pep_options));
    }
    if ((opts.optLayout || opts.optClone) && !stack.peps.empty()) {
        stack.consumer =
            std::make_unique<opt::PepConsumer>(*stack.peps.front());
        opt::PipelineOptions pipeline_options;
        pipeline_options.layout = opts.optLayout;
        pipeline_options.clone = opts.optClone;
        stack.pipeline = std::make_unique<opt::OptPipeline>(
            *stack.consumer, pipeline_options);
        machine.addCompilePass(stack.pipeline.get());
    }
    return stack;
}

/** One engine's complete outcome: the serialized observables, or the
 *  panic/fatal that killed the run. */
struct EngineRun
{
    std::string blob;
    std::string death;
};

/** Run the program on a fresh machine pinned to `kind`, with the same
 *  hook set every engine run gets, PEP configuration `first` attached
 *  first. */
EngineRun
runEngineOnce(const bytecode::Program &program, const DiffOptions &opts,
              vm::EngineKind kind, std::size_t first)
{
    EngineRun result;

    vm::SimParams params;
    params.engine = kind;
    params.tickCycles = opts.tickCycles;
    params.enableOsr = opts.enableOsr;
    params.yieldpointsOnBackEdges = opts.yieldpointsOnBackEdges;
    params.enableInlining = opts.enableInlining;
    params.maxCyclesPerIteration = opts.maxCyclesPerIteration;
    params.fuse = opts.fuse;
    if (opts.inject == InjectKind::EngineDivergence &&
        kind == vm::EngineKind::Threaded)
        params.rngSeed ^= 1;
    vm::Machine machine(program, params);

    ExactOracle oracle(machine, opts.mode, opts.kIterations);
    core::FullPathProfiler full(machine, opts.mode,
                                /*charge_costs=*/false, opts.scheme,
                                core::PathStoreKind::Array,
                                opts.placement, opts.kIterations);
    // Both engine machines install the identical reoptimization
    // pipeline, fed by their own (deterministically identical) first
    // PEP profiler — layout and cloning decisions replay byte-for-byte,
    // keeping the check-7 contract meaningful for optimized runs.
    const PepStack stack = buildPepStack(machine, opts);

    // The PEPs are attached first, `first` ahead of the others, so the
    // threaded machine runs that one's register and sampling countdown
    // inline (docs/ENGINE.md) and drives the others and the full
    // profiler by hooks — the opposite of runDiff's main machine, which
    // attaches the full profiler first. The switch machine drives all
    // of them by hooks and is the reference either way. Observables
    // list the PEPs in configuration order whatever the attach order.
    for (std::size_t p = 0; p < stack.peps.size(); ++p) {
        core::PepProfiler *pep =
            stack.peps[(first + p) % stack.peps.size()].get();
        machine.addHooks(pep);
        machine.addCompileObserver(pep);
    }
    machine.addHooks(&oracle);
    machine.addCompileObserver(&oracle);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);

    try {
        for (std::uint32_t it = 0; it < opts.iterations; ++it)
            machine.runIteration();
    } catch (const support::PanicError &e) {
        result.death = std::string("panic: ") + e.what();
        return result;
    } catch (const support::FatalError &e) {
        result.death = std::string("fatal: ") + e.what();
        return result;
    }
    RunObservers observers;
    observers.full = &full;
    for (const auto &pep : stack.peps)
        observers.peps.push_back(pep.get());
    observers.pipeline = stack.pipeline.get();
    result.blob = serializeRun(machine, observers) + "oracle " +
                  std::to_string(oracle.totalSegments()) + '\n';
    return result;
}

/** First line two serialized runs disagree on, truncated for the
 *  violation message, each side named by its label. */
std::string
firstBlobDiff(const std::string &a, const std::string &b,
              const std::string &a_label, const std::string &b_label)
{
    std::istringstream as(a);
    std::istringstream bs(b);
    std::string la;
    std::string lb;
    const auto trim = [](const std::string &line) {
        return line.size() > 48 ? line.substr(0, 48) + "..." : line;
    };
    while (true) {
        const bool more_a = static_cast<bool>(std::getline(as, la));
        const bool more_b = static_cast<bool>(std::getline(bs, lb));
        if (!more_a && !more_b)
            return "<identical>";
        if (la != lb || more_a != more_b) {
            return a_label + " [" + trim(more_a ? la : "<eof>") +
                   "] vs " + b_label + " [" +
                   trim(more_b ? lb : "<eof>") + ']';
        }
    }
}

std::string
pepTag(const PepConfig &config)
{
    std::ostringstream tag;
    tag << "pep(" << config.samples << ',' << config.stride << ')';
    return tag.str();
}

/**
 * Check 7: run the program on a switch machine and, once per PEP
 * configuration, on a threaded machine that runs that configuration
 * inline, all otherwise identical, and byte-compare every observable
 * of each threaded run with the switch run's. A run that dies (e.g.
 * the runaway-cycle guard) must die identically on both engines; the
 * engine-divergence injection seeds the threaded runs' Irnd stream
 * differently, so this check must report a divergence.
 */
void
runEngineCrossCheck(const bytecode::Program &program,
                    const DiffOptions &opts, DiffReport &report)
{
    const EngineRun sw =
        runEngineOnce(program, opts, vm::EngineKind::Switch, 0);
    for (std::size_t p = 0; p < std::max<std::size_t>(
                                    opts.pepConfigs.size(), 1);
         ++p) {
        const EngineRun th =
            runEngineOnce(program, opts, vm::EngineKind::Threaded, p);
        const std::string threaded =
            opts.pepConfigs.empty()
                ? std::string("threaded")
                : "threaded (" + pepTag(opts.pepConfigs[p]) + " inline)";
        if (sw.death != th.death) {
            addViolation(report,
                         "engines: switch run [" +
                             (sw.death.empty() ? "clean" : sw.death) +
                             "] but " + threaded + " run [" +
                             (th.death.empty() ? "clean" : th.death) +
                             ']');
        } else if (!sw.death.empty()) {
            report.notes.push_back(
                "engines: both engine runs died identically (" +
                sw.death + "); byte comparison skipped");
            return;
        } else if (sw.blob != th.blob) {
            addViolation(report,
                         "engines: switch and " + threaded +
                             " observables diverge: " +
                             firstBlobDiff(sw.blob, th.blob, "switch",
                                           threaded));
        }
    }
}

/** Whether check 7 runs: the other injections corrupt the main run's
 *  profiler state, which doesn't exist on the cross-check machines —
 *  skip the redundant runs. */
bool
crossCheck(const DiffOptions &opts)
{
    return opts.inject == InjectKind::None ||
           opts.inject == InjectKind::EngineDivergence;
}

/** False once a version can run a synthesized (inlined or cloned)
 *  body: its ground truth keeps bytecode-level *branch* edges only, so
 *  whole-CFG conservation no longer applies. */
bool
bytecodeLevelTruth(const vm::Machine &machine)
{
    if (machine.params().enableInlining)
        return false;
    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
            if (machine.versionAt(m, v)->cloneApplied)
                return false;
        }
    }
    return true;
}

} // namespace

std::string
injectKindName(InjectKind kind)
{
    switch (kind) {
      case InjectKind::None:
        return "none";
      case InjectKind::CorruptFlatIncrement:
        return "corrupt-increment";
      case InjectKind::EngineDivergence:
        return "engine-divergence";
      case InjectKind::ImpossibleProfile:
        return "impossible-profile";
      case InjectKind::RingLostSample:
        return "ring-lost-sample";
      case InjectKind::TruncatedWindow:
        return "truncated-window";
      case InjectKind::StaleOsrPlan:
        return "stale-osr-plan";
    }
    return "none";
}

bool
parseInjectKind(const std::string &name, InjectKind &out)
{
    if (name == "none") {
        out = InjectKind::None;
    } else if (name == "corrupt-increment") {
        out = InjectKind::CorruptFlatIncrement;
    } else if (name == "engine-divergence") {
        out = InjectKind::EngineDivergence;
    } else if (name == "impossible-profile") {
        out = InjectKind::ImpossibleProfile;
    } else if (name == "ring-lost-sample") {
        out = InjectKind::RingLostSample;
    } else if (name == "truncated-window") {
        out = InjectKind::TruncatedWindow;
    } else if (name == "stale-osr-plan") {
        out = InjectKind::StaleOsrPlan;
    } else {
        return false;
    }
    return true;
}

const std::vector<DiffOptions> &
standardConfigs()
{
    static const std::vector<DiffOptions> configs = [] {
        std::vector<DiffOptions> v;

        DiffOptions base;
        base.name = "headersplit-direct";
        v.push_back(base);

        DiffOptions spanning;
        spanning.name = "smart-spanning-osr";
        spanning.scheme = profile::NumberingScheme::Smart;
        spanning.placement = profile::PlacementKind::SpanningTree;
        spanning.enableOsr = true;
        v.push_back(spanning);

        DiffOptions backedge;
        backedge.name = "backedge";
        backedge.mode = profile::DagMode::BackEdgeTruncate;
        backedge.yieldpointsOnBackEdges = true;
        v.push_back(backedge);

        DiffOptions inlined;
        inlined.name = "inline-smart";
        inlined.scheme = profile::NumberingScheme::Smart;
        inlined.enableInlining = true;
        v.push_back(inlined);

        // k-BLPP legs (docs/KBLPP.md): the same oracle-exact checks
        // over multi-iteration window ids, crossed with the features
        // that interrupt windows mid-frame (OSR) and change the CFGs
        // they form over (inlining).
        DiffOptions kiter2;
        kiter2.name = "kiter2-smart-osr";
        kiter2.kIterations = 2;
        kiter2.scheme = profile::NumberingScheme::Smart;
        kiter2.enableOsr = true;
        v.push_back(kiter2);

        DiffOptions kiter4;
        kiter4.name = "kiter4-backedge";
        kiter4.kIterations = 4;
        kiter4.mode = profile::DagMode::BackEdgeTruncate;
        kiter4.yieldpointsOnBackEdges = true;
        v.push_back(kiter4);

        DiffOptions kiter4_inline;
        kiter4_inline.name = "kiter4-inline";
        kiter4_inline.kIterations = 4;
        kiter4_inline.scheme = profile::NumberingScheme::Smart;
        kiter4_inline.enableInlining = true;
        v.push_back(kiter4_inline);

        // The optimizer leg (PEP_OPT, .github/workflows/ci.yml): when
        // the environment selects passes, every config above runs with
        // the reoptimization pipeline installed — the whole oracle
        // matrix must stay clean while layouts and clones land.
        if (const std::optional<opt::PipelineOptions> env =
                opt::pipelineOptionsFromEnv()) {
            for (DiffOptions &config : v) {
                config.optLayout = env->layout;
                config.optClone = env->clone;
            }
        }

        // Always-on clone configs, environment or not: check 9 needs
        // a config that clones in the default sweep, and the
        // k-iteration variant proves composite-id profiles fold just
        // as exactly.
        DiffOptions clone_smart;
        clone_smart.name = "clone-smart";
        clone_smart.scheme = profile::NumberingScheme::Smart;
        clone_smart.optLayout = true;
        clone_smart.optClone = true;
        v.push_back(clone_smart);

        DiffOptions clone_kiter2;
        clone_kiter2.name = "clone-kiter2";
        clone_kiter2.kIterations = 2;
        clone_kiter2.scheme = profile::NumberingScheme::Smart;
        clone_kiter2.optLayout = true;
        clone_kiter2.optClone = true;
        v.push_back(clone_kiter2);

        // Fusion legs (docs/ENGINE.md): superinstruction pairs alone,
        // then pairs + straightened traces with the layout pass
        // installed (so recompiled layouts re-specialize real chains)
        // and a k-iteration window — the whole oracle matrix plus check 7
        // must stay clean while the threaded engine executes fused and
        // batch-charged streams.
        DiffOptions fuse_pairs;
        fuse_pairs.name = "fuse-pairs";
        fuse_pairs.fuse = {true, false};
        v.push_back(fuse_pairs);

        DiffOptions fuse_traces;
        fuse_traces.name = "fuse-traces-kiter2";
        fuse_traces.fuse = {true, true};
        fuse_traces.kIterations = 2;
        fuse_traces.scheme = profile::NumberingScheme::Smart;
        fuse_traces.optLayout = true;
        v.push_back(fuse_traces);

        return v;
    }();
    return configs;
}

const DiffOptions *
findConfig(const std::string &name)
{
    for (const DiffOptions &config : standardConfigs()) {
        if (config.name == name)
            return &config;
    }
    return nullptr;
}

DiffReport
runDiff(const bytecode::Program &program, const DiffOptions &opts)
{
    DiffReport report;

    vm::SimParams params;
    params.tickCycles = opts.tickCycles;
    params.enableOsr = opts.enableOsr;
    params.yieldpointsOnBackEdges = opts.yieldpointsOnBackEdges;
    params.enableInlining = opts.enableInlining;
    params.maxCyclesPerIteration = opts.maxCyclesPerIteration;
    params.fuse = opts.fuse;
    vm::Machine machine(program, params);

    ExactOracle oracle(machine, opts.mode, opts.kIterations);
    core::FullPathProfiler full(machine, opts.mode,
                                /*charge_costs=*/false, opts.scheme,
                                core::PathStoreKind::Array,
                                opts.placement, opts.kIterations);

    // The profile-guided reoptimization pipeline (src/opt/), when
    // configured, is fed by the first PEP configuration's live profile
    // and installed before the first iteration, so tier-up recompiles
    // run through it.
    const PepStack stack = buildPepStack(machine, opts);
    const std::vector<std::unique_ptr<core::PepProfiler>> &peps =
        stack.peps;

    // Under the threaded engine the full profiler, the first path
    // engine attached, runs inline and the PEPs by hooks (check 7's
    // machines attach PEP first instead).
    machine.addHooks(&oracle);
    machine.addCompileObserver(&oracle);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);
    for (auto &pep : peps) {
        machine.addHooks(pep.get());
        machine.addCompileObserver(pep.get());
    }

    // OSR happens while methods tier up, mostly in the first
    // iteration: this fault is live from the start.
    if (opts.inject == InjectKind::StaleOsrPlan)
        full.setStaleOsrPlanInjection(true);

    std::set<core::VersionKey> injected;
    for (std::uint32_t it = 0; it < opts.iterations; ++it) {
        machine.runIteration();
        // Inject after a warm-up iteration so corrupted plans actually
        // execute in the following ones. engine-divergence acts in
        // check 7's cross-check machines, ring-lost-sample only in
        // runThreadedDiff.
        if (it + 1 == opts.iterations)
            continue;
        if (opts.inject == InjectKind::CorruptFlatIncrement)
            corruptIncrements(full, injected);
        if (opts.inject == InjectKind::TruncatedWindow)
            full.setTruncateWindowInjection(true);
    }

    // Post-run injection: corruption after the final iteration, when
    // nothing further executes. The static realizability pass below
    // rejects it.
    if (opts.inject == InjectKind::ImpossibleProfile && !peps.empty())
        corruptPepEdgeProfile(machine, *peps.front());

    const bool bytecode_level_truth = bytecodeLevelTruth(machine);
    if (!bytecode_level_truth && !opts.enableInlining) {
        report.notes.push_back(
            "cloned versions installed: bytecode-level conservation "
            "checks skipped");
    }

    // Check 1: the oracle read the interpreter's event stream the way
    // the interpreter meant it.
    checkEdgeTablesEqual(oracle.edges(), machine.truthEdges(),
                         "oracle edge mirror", report);

    report.oracleSegments = oracle.totalSegments();
    report.blppPaths = full.pathsStored();
    for (const auto &pep : peps)
        report.pepSamplesRecorded += pep->pepStats().samplesRecorded;

    std::size_t pep_overflows = 0;
    for (const auto &pep : peps)
        pep_overflows += pep->overflowCount();
    if (full.overflowCount() != 0 || pep_overflows != 0) {
        // Disabled plans profile nothing while the oracle still counts
        // segments; the comparisons below don't apply. The generator
        // sizes programs so this never happens in practice.
        report.notes.push_back(
            "numbering overflow: segment checks skipped");
        if (crossCheck(opts))
            runEngineCrossCheck(program, opts, report);
        return report;
    }

    // Checks 2 and 4: full BLPP vs oracle, agreed totals.
    for (auto &[key, vp] : full.versionProfiles()) {
        if (!vp->state->plan.enabled)
            continue;
        ++report.instrumentedVersions;

        const VersionTruth *vt = oracle.truthFor(key);
        if (!vt) {
            addViolation(report, "full: " + keyName(key) +
                                     " unknown to the oracle");
            continue;
        }

        const SegmentCounts from_full = segmentsFromProfile(
            *vp->state, vp->paths, "full", report);
        for (const auto &[seq, count] : from_full) {
            const auto it = vt->segments.find(seq);
            if (it == vt->segments.end()) {
                addViolation(report,
                             "full: " + keyName(key) +
                                 " counted a never-executed path [" +
                                 formatEdgeSeq(seq) + "]");
            } else if (it->second != count) {
                std::ostringstream os;
                os << "full: " << keyName(key) << " path ["
                   << formatEdgeSeq(seq) << "] count " << count
                   << " != oracle " << it->second;
                addViolation(report, os.str());
            }
        }
        for (const auto &[seq, count] : vt->segments) {
            if (from_full.find(seq) == from_full.end()) {
                std::ostringstream os;
                os << "full: " << keyName(key) << " missed path ["
                   << formatEdgeSeq(seq) << "] executed " << count
                   << " times";
                addViolation(report, os.str());
            }
        }
    }

    if (full.pathsStored() != oracle.totalSegments()) {
        std::ostringstream os;
        os << "totals: full stored " << full.pathsStored()
           << " paths but the oracle saw " << oracle.totalSegments()
           << " segments";
        addViolation(report, os.str());
    }

    // Check 5: each PEP configuration.
    for (std::size_t p = 0; p < peps.size(); ++p) {
        core::PepProfiler &pep = *peps[p];
        const std::string what = pepTag(opts.pepConfigs[p]);

        const core::PepStats &stats = pep.pepStats();
        if (stats.pathsCompleted != oracle.totalSegments()) {
            std::ostringstream os;
            os << what << ": completed " << stats.pathsCompleted
               << " paths but the oracle saw "
               << oracle.totalSegments() << " segments";
            addViolation(report, os.str());
        }
        if (stats.samplesRecorded > stats.samplesTaken) {
            std::ostringstream os;
            os << what << ": recorded " << stats.samplesRecorded
               << " samples out of " << stats.samplesTaken
               << " taken";
            addViolation(report, os.str());
        }

        std::uint64_t recorded = 0;
        for (auto &[key, vp] : pep.versionProfiles()) {
            if (!vp->state->plan.enabled)
                continue;
            const VersionTruth *vt = oracle.truthFor(key);
            if (!vt) {
                addViolation(report, what + ": " + keyName(key) +
                                         " unknown to the oracle");
                continue;
            }
            const SegmentCounts sampled = segmentsFromProfile(
                *vp->state, vp->paths, what, report);
            for (const auto &[seq, count] : sampled) {
                recorded += count;
                const auto it = vt->segments.find(seq);
                if (it == vt->segments.end()) {
                    addViolation(
                        report,
                        what + ": " + keyName(key) +
                            " sampled a never-executed path [" +
                            formatEdgeSeq(seq) + "]");
                } else if (count > it->second) {
                    std::ostringstream os;
                    os << what << ": " << keyName(key)
                       << " sampled path [" << formatEdgeSeq(seq)
                       << "] " << count << " times but it executed "
                       << it->second << " times";
                    addViolation(report, os.str());
                }
            }
        }
        if (recorded != stats.samplesRecorded) {
            std::ostringstream os;
            os << what << ": per-path counts sum to " << recorded
               << " but samplesRecorded is " << stats.samplesRecorded;
            addViolation(report, os.str());
        }

        checkEdgeTablesBounded(pep.edgeProfile(), machine.truthEdges(),
                               what + " edge profile", report);
    }

    // Check 6: the edge profile derived from full BLPP paths. Paths of
    // versions running a synthesized body (inlined or cloned) fold
    // onto the bytecode tables exactly like ground truth, so the bound
    // always holds. Flow conservation needs pure bytecode-level truth:
    // auditRun checks it at non-header blocks, and while the oracle
    // saw every walk ending at a header paired with one starting there
    // (no frame dropped or adopted mid-path) headers conserve too.
    analysis::DiagnosticList diags;
    try {
        profile::EdgeProfileSet derived =
            core::edgeProfileFromPaths(machine, full);
        checkEdgeTablesBounded(derived, machine.truthEdges(),
                               "full-derived edge profile", report);
        const bool clean_pairing = oracle.droppedFrames() == 0 &&
                                   oracle.adoptedFrames() == 0;
        if (bytecode_level_truth && clean_pairing) {
            analysis::RealizabilityOptions headers;
            headers.what = "full-derived edge profile";
            headers.requireHeaderConservation = true;
            analysis::checkEdgeSetRealizability(machine, derived, headers,
                                                diags);
        } else if (bytecode_level_truth) {
            report.notes.push_back(
                "frames dropped or adopted mid-path: header "
                "conservation skipped");
        }
    } catch (const support::PanicError &e) {
        addViolation(report,
                     std::string("full-derived edge profile: "
                                 "reconstruction panicked: ") +
                         e.what());
    }

    // Check 9: clone-fold exactness. The full profiler's counts for a
    // cloned version live in the synthesized CFG; folded through the
    // version's live BlockOrigin map they must agree count for count
    // with the oracle's literal segments folded through the origin
    // snapshot the oracle took at compile time. A fold that loses or
    // misroutes a cloned branch's counters breaks the agreement.
    for (auto &[key, vp] : full.versionProfiles()) {
        if (!vp->state->plan.enabled || !vp->state->compiled)
            continue;
        const vm::CompiledMethod *cm = vp->state->compiled;
        if (!cm->cloneApplied || !cm->inlinedBody)
            continue;
        const VersionTruth *vt = oracle.truthFor(key);
        if (!vt)
            continue; // already a check-2 violation
        const bytecode::MethodCfg &version_cfg =
            cm->inlinedBody->info.cfg;
        const SegmentCounts from_full = segmentsFromProfile(
            *vp->state, vp->paths, "clone-fold", report);
        const FoldedBranchCounts folded_profile =
            foldBranchCounts(from_full, version_cfg,
                             cm->inlinedBody->blockOrigin, key.first);
        const FoldedBranchCounts folded_truth =
            foldBranchCounts(vt->segments, version_cfg,
                             vt->originSnapshot, key.first);
        if (folded_profile != folded_truth) {
            std::ostringstream os;
            os << "clone-fold: " << keyName(key)
               << " folded branch counts diverge from the oracle's "
                  "compile-time fold";
            for (const auto &[edge, count] : folded_truth) {
                const auto it = folded_profile.find(edge);
                const std::uint64_t got =
                    it == folded_profile.end() ? 0 : it->second;
                if (got != count) {
                    os << " (edge " << edge.first << ':' << edge.second
                       << " folded " << got << ", oracle " << count
                       << ')';
                    break;
                }
            }
            addViolation(report, os.str());
        }
    }

    // Check 7: switch vs threaded engine byte-identity.
    if (crossCheck(opts))
        runEngineCrossCheck(program, opts, report);

    // The static verify passes see everything the dynamic checks saw.
    std::vector<core::PepProfiler *> pep_views;
    for (const auto &pep : peps)
        pep_views.push_back(pep.get());
    auditRun(machine, full, pep_views, opts.pepConfigs, diags);
    std::vector<analysis::Diagnostic> sorted = diags.all();
    analysis::sortDiagnostics(sorted);
    for (const analysis::Diagnostic &d : sorted) {
        if (d.severity == analysis::Severity::Error)
            addViolation(report, "verify: " + analysis::formatDiagnostic(d));
    }

    return report;
}

void
auditRun(vm::Machine &machine, core::FullPathProfiler &full,
         const std::vector<core::PepProfiler *> &peps,
         const std::vector<PepConfig> &configs,
         analysis::DiagnosticList &diagnostics)
{
    analysis::verifyMachine(machine, diagnostics);

    const auto audit_paths = [&](core::PathEngine &engine,
                                 const std::string &what,
                                 std::uint64_t max_total) {
        analysis::RealizabilityOptions ropts;
        ropts.what = what;
        ropts.walkMultiplicity = engine.kIterations();
        for (auto &[key, vp] : engine.versionProfiles()) {
            if (!vp->state)
                continue;
            const std::string &name =
                machine.program().methods[key.first].name;
            analysis::KPathCheckInput kinput;
            kinput.plan = &vp->state->plan;
            kinput.kpath = &vp->state->kpath;
            kinput.kRequested = engine.kIterations();
            kinput.methodName = name;
            analysis::checkKPathScheme(kinput, diagnostics);
            analysis::checkPathProfileRealizability(
                vp->state->plan, *vp->state->reconstructor, vp->paths,
                ropts, max_total, name, /*has_version=*/true,
                key.second, diagnostics, &vp->state->kpath);
        }
    };
    // Edge profiles are sums of recorded walks; a k-window may cross
    // one edge up to k times.
    const auto audit_edges = [&](const profile::EdgeProfileSet &edges,
                                 const core::PathEngine &engine,
                                 const std::string &what,
                                 std::uint64_t max_walks) {
        analysis::RealizabilityOptions ropts;
        ropts.what = what;
        ropts.maxWalks = max_walks;
        ropts.walkMultiplicity = engine.kIterations();
        analysis::checkEdgeSetRealizability(machine, edges, ropts,
                                            diagnostics);
    };
    const bool bytecode_level_truth = bytecodeLevelTruth(machine);

    audit_paths(full, "full-path profile", full.pathsStored());
    for (std::size_t p = 0; p < peps.size(); ++p) {
        const std::string tag = pepTag(configs[p]);
        const std::uint64_t samples = peps[p]->pepStats().samplesRecorded;
        audit_paths(*peps[p], tag + " paths", samples);
        if (bytecode_level_truth)
            audit_edges(peps[p]->edgeProfile(), *peps[p], tag + " edges",
                        samples);
    }
    if (!bytecode_level_truth)
        return;

    // Ground truth counts complete frames, so conservation holds at
    // loop headers too.
    analysis::RealizabilityOptions truth;
    truth.what = "truth edges";
    truth.requireHeaderConservation = true;
    analysis::checkEdgeSetRealizability(machine, machine.truthEdges(),
                                        truth, diagnostics);
    try {
        audit_edges(core::edgeProfileFromPaths(machine, full), full,
                    "path-derived edges", full.pathsStored());
    } catch (const support::PanicError &e) {
        diagnostics.report(analysis::Severity::Error, "realizability", "",
                           std::string("path-derived edges: "
                                       "reconstruction panicked: ") +
                               e.what());
    }
}

namespace {

/** Check 5: every sample offered to the ring transport is either
 *  applied by the collector or counted as dropped — never lost
 *  silently. */
void
checkRingConservation(const runtime::ThroughputResult &result,
                      const std::string &label, DiffReport &report)
{
    const runtime::RingTransportStats &transport = result.transport;
    if (transport.produced !=
        transport.consumed + transport.dropped) {
        std::ostringstream os;
        os << label << ": sample conservation violated — produced "
           << transport.produced << " != consumed "
           << transport.consumed << " + dropped "
           << transport.dropped;
        addViolation(report, os.str());
    }
}

} // namespace

const std::vector<ThreadedDiffOptions> &
standardThreadedConfigs()
{
    static const std::vector<ThreadedDiffOptions> configs = [] {
        std::vector<ThreadedDiffOptions> all;

        ThreadedDiffOptions k2;
        k2.name = "coop-k2";
        k2.threads = 2;
        k2.seed = 11;
        k2.requests = 64;
        all.push_back(k2);

        ThreadedDiffOptions k4; // the defaults
        all.push_back(k4);

        ThreadedDiffOptions k8;
        k8.name = "coop-k8-fast-tick";
        k8.threads = 8;
        k8.seed = 29;
        k8.requests = 128;
        k8.tickCycles = 3'000;
        k8.workers = 4;
        all.push_back(k8);

        ThreadedDiffOptions sparse;
        sparse.name = "coop-k3-sparse-sampling";
        sparse.threads = 3;
        sparse.seed = 5;
        sparse.requests = 80;
        sparse.pep = PepConfig{64, 17};
        all.push_back(sparse);

        // k-BLPP under the cooperative scheduler: per-frame window
        // state must survive context switches (frames park mid-window)
        // and the two interleaved runs must stay byte-identical.
        ThreadedDiffOptions kiter;
        kiter.name = "coop-k3-kiter2";
        kiter.threads = 3;
        kiter.seed = 17;
        kiter.requests = 72;
        kiter.kIterations = 2;
        all.push_back(kiter);

        // Ring-transport stress: small epochs make every worker
        // enqueue many epoch marks (lots of window advances), and the
        // tight secondary ring is tiny enough that nearly everything
        // drops — conservation and boundedness must hold regardless.
        ThreadedDiffOptions ring;
        ring.name = "ring-small-epoch";
        ring.threads = 4;
        ring.seed = 43;
        ring.requests = 96;
        ring.workers = 4;
        ring.epochRequests = 4;
        ring.tightRingCapacity = 16;
        all.push_back(ring);

        return all;
    }();
    return configs;
}

const ThreadedDiffOptions *
findThreadedConfig(const std::string &name)
{
    for (const ThreadedDiffOptions &config : standardThreadedConfigs())
        if (config.name == name)
            return &config;
    return nullptr;
}

DiffReport
runThreadedDiff(const ThreadedDiffOptions &opts)
{
    DiffReport report;

    runtime::RequestStreamSpec spec;
    spec.seed = opts.seed;
    spec.requests = opts.requests;
    runtime::RequestStream stream(spec);

    vm::SimParams params;
    params.tickCycles = opts.tickCycles;
    params.rngSeed = opts.seed ^ 0x7ead5eedull;

    // Checks 1-2: the interleaved cooperative run, twice — every
    // request completes, PEP stays bounded by ground truth, and the
    // second run reproduces the first byte for byte.
    profile::EdgeProfileSet interleaved_truth;
    std::string first_blob;
    for (int run = 0; run < 2; ++run) {
        vm::Machine machine(stream.program(), params);
        core::SimplifiedArnoldGrove controller(opts.pep.samples,
                                               opts.pep.stride);
        core::PepOptions pep_options;
        pep_options.kIterations = opts.kIterations;
        core::PepProfiler pep(machine, controller, pep_options);
        machine.addHooks(&pep);
        machine.addCompileObserver(&pep);

        runtime::CoopOptions coop;
        coop.threads = opts.threads;
        coop.seed = opts.seed;
        runtime::CoopScheduler scheduler(machine, coop);
        scheduler.assignRoundRobin(stream);
        scheduler.run();

        if (scheduler.stats().requestsCompleted !=
            stream.requests().size()) {
            std::ostringstream os;
            os << "coop: completed "
               << scheduler.stats().requestsCompleted << " of "
               << stream.requests().size() << " requests";
            addViolation(report, os.str());
        }
        checkEdgeTablesBounded(pep.edgeProfile(), machine.truthEdges(),
                               "pep (coop)", report);

        const std::string blob = serializeRun(
            machine, {.peps = {&pep}, .coop = &scheduler.stats()});
        if (run == 0) {
            first_blob = blob;
            interleaved_truth = machine.truthEdges();
            report.pepSamplesRecorded =
                pep.pepStats().samplesRecorded;
        } else if (blob != first_blob) {
            addViolation(report,
                         "determinism: repeating the cooperative run "
                         "with identical seeds changed the serialized "
                         "profiles: " +
                             firstBlobDiff(first_blob, blob, "first run",
                                           "repeat"));
        }
    }

    // Check 3: thread t alone, same thread id and request subsequence,
    // must contribute exactly its share — handlers are thread-pure, so
    // the interleaved merged truth is the sum of the solo truths.
    profile::EdgeProfileSet oracle_sum;
    for (std::uint32_t t = 0; t < opts.threads; ++t) {
        vm::Machine machine(stream.program(), params);
        ExactOracle oracle(machine, profile::DagMode::HeaderSplit,
                           opts.kIterations);
        machine.addHooks(&oracle);
        machine.addCompileObserver(&oracle);
        vm::Interpreter interp(machine, t);
        for (const runtime::Request &request :
             stream.shard(t, opts.threads)) {
            interp.start(stream.handlerMethod(request.handler),
                         {request.arg});
            while (!interp.resume()) {
            }
        }
        checkEdgeTablesEqual(oracle.edges(), machine.truthEdges(),
                             "solo oracle edge mirror", report);
        report.oracleSegments += oracle.totalSegments();
        if (oracle_sum.perMethod.empty())
            oracle_sum = oracle.edges();
        else
            oracle_sum.merge(oracle.edges());
    }
    checkEdgeTablesEqual(oracle_sum, interleaved_truth,
                         "per-thread oracle sum vs interleaved truth",
                         report);

    // Check 4: aggregation strategy changes throughput, never counts —
    // and the counts are what each shard completes alone, whatever the
    // recorder and the aggregator do with them.
    const ServiceTotals solo =
        soloServiceTotals(stream, opts.workers, params);
    auto check_solo = [&](const runtime::ThroughputResult &result,
                          const std::string &label) {
        for (const std::string &mismatch :
             serviceTotalsMismatches(result, solo))
            addViolation(report, label + " vs solo oracle: " + mismatch);
    };
    runtime::ThroughputOptions t_options;
    t_options.workers = opts.workers;
    t_options.epochRequests = opts.epochRequests;
    t_options.params = params;

    t_options.aggregation = runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult sharded =
        runtime::runThroughput(stream, t_options);
    t_options.aggregation = runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult mutex_global =
        runtime::runThroughput(stream, t_options);

    if (sharded.requestsCompleted != stream.requests().size()) {
        std::ostringstream os;
        os << "throughput: completed " << sharded.requestsCompleted
           << " of " << stream.requests().size() << " requests";
        addViolation(report, os.str());
    }
    checkEdgeTablesEqual(sharded.edges, mutex_global.edges,
                         "sharded vs mutex edge totals", report);
    if (sharded.paths != mutex_global.paths)
        addViolation(report, "sharded vs mutex path totals diverge");
    check_solo(sharded, "sharded");
    check_solo(mutex_global, "mutex");
    report.blppPaths = sharded.pathRecords;

    // Checks 5-6: the ring transport. Ample capacity first — the run
    // should be drop-free, making the mutex identity check applicable;
    // then a deliberately tiny ring, which must drop (and count every
    // drop) while staying bounded by the mutex totals. Conservation is
    // checked on both: a transport that loses a sample without counting
    // it (the ring-lost-sample injection, or a real accounting bug)
    // fails here.
    t_options.aggregation = runtime::ThroughputOptions::Aggregation::Ring;
    t_options.ring.capacity = opts.ringCapacity;
    t_options.ring.injectLoseAt =
        opts.inject == InjectKind::RingLostSample ? 10 : 0;
    const runtime::ThroughputResult ring =
        runtime::runThroughput(stream, t_options);

    checkRingConservation(ring, "ring (ample)", report);
    if (ring.transport.dropped == 0) {
        checkEdgeTablesEqual(ring.edges, mutex_global.edges,
                             "drop-free ring vs mutex edge totals",
                             report);
        if (ring.paths != mutex_global.paths) {
            addViolation(report,
                         "drop-free ring vs mutex path totals diverge");
        }
        check_solo(ring, "drop-free ring");
    } else {
        std::ostringstream os;
        os << "ring (ample) dropped " << ring.transport.dropped
           << " samples; identity check skipped";
        report.notes.push_back(os.str());
    }
    if (ring.windowAdvances == 0 &&
        ring.transport.epochMarks > ring.transport.droppedEpochMarks) {
        addViolation(report, "ring windows never advanced despite "
                             "delivered epoch marks");
    }

    if (opts.tightRingCapacity > 0) {
        t_options.ring.capacity = opts.tightRingCapacity;
        t_options.ring.injectLoseAt = 0;
        const runtime::ThroughputResult tight =
            runtime::runThroughput(stream, t_options);
        checkRingConservation(tight, "ring (tight)", report);
        checkEdgeTablesBounded(tight.edges, mutex_global.edges,
                               "ring (tight)", report);
        for (const auto &[key, count] : tight.paths) {
            const auto it = mutex_global.paths.find(key);
            const std::uint64_t reference =
                it == mutex_global.paths.end() ? 0 : it->second;
            if (count > reference) {
                std::ostringstream os;
                os << "ring (tight): path " << key.number
                   << " of method " << key.method << " counted "
                   << count << " > mutex " << reference
                   << " — drops invented counts";
                addViolation(report, os.str());
                break;
            }
        }
    }

    return report;
}

std::string
formatCorpusFile(const bytecode::Program &program,
                 const std::string &config, std::uint64_t seed,
                 InjectKind inject, const std::string &violation)
{
    std::ostringstream os;
    os << "; pep-fuzz: config=" << config << " seed=" << seed
       << " inject=" << injectKindName(inject) << '\n';
    if (!violation.empty()) {
        // First line of the violation only; keep the file greppable.
        const std::size_t eol = violation.find('\n');
        os << "; violation: " << violation.substr(0, eol) << '\n';
    }
    os << bytecode::disassembleProgram(program);
    return os.str();
}

CorpusHeader
parseCorpusHeader(const std::string &source)
{
    CorpusHeader header;
    std::istringstream is(source);
    std::string line;
    while (std::getline(is, line)) {
        const std::string prefix = "; pep-fuzz:";
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::istringstream fields(line.substr(prefix.size()));
        std::string field;
        while (fields >> field) {
            const std::size_t eq = field.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = field.substr(0, eq);
            const std::string value = field.substr(eq + 1);
            if (key == "config") {
                header.config = value;
            } else if (key == "inject") {
                header.inject = value;
            } else if (key == "seed") {
                header.seed = std::strtoull(value.c_str(), nullptr, 10);
            }
        }
        break;
    }
    return header;
}

} // namespace pep::testing
