#include "testing/differ.hh"

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
#include "testing/oracle.hh"
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
 * Both the dynamic conservation check (check 5) and the static
 * realizability pass must reject it.
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

/** Compare two per-method count tables (parallel to successor lists). */
void
checkEdgeTablesEqual(const profile::EdgeProfileSet &got,
                     const profile::EdgeProfileSet &want,
                     const std::string &what, DiffReport &report)
{
    for (std::size_t m = 0; m < want.perMethod.size(); ++m) {
        if (got.perMethod[m].counts() != want.perMethod[m].counts()) {
            std::ostringstream os;
            os << what << ": method " << m
               << " edge counts diverge from ground truth";
            addViolation(report, os.str());
        }
    }
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
 * Flow conservation: profiled walks are contiguous edge sequences whose
 * boundaries lie at loop headers, method entry and method exit, so at
 * every other code block inflow must equal outflow. When no frame was
 * dropped mid-path, every walk ending at a header is paired with one
 * starting there, and headers conserve too.
 */
void
checkConservation(const profile::EdgeProfileSet &edges,
                  const vm::Machine &machine, bool include_headers,
                  const std::string &what, DiffReport &report)
{
    for (std::size_t m = 0; m < edges.perMethod.size(); ++m) {
        const bytecode::MethodCfg &cfg =
            machine.info(static_cast<bytecode::MethodId>(m)).cfg;
        const auto &counts = edges.perMethod[m].counts();
        std::vector<std::uint64_t> in(cfg.graph.numBlocks(), 0);
        std::vector<std::uint64_t> out(cfg.graph.numBlocks(), 0);
        for (cfg::BlockId src = 0; src < cfg.graph.numBlocks(); ++src) {
            const auto &succs = cfg.graph.succs(src);
            for (std::size_t i = 0; i < succs.size(); ++i) {
                out[src] += counts[src][i];
                in[succs[i]] += counts[src][i];
            }
        }
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            if (!cfg.isCodeBlock(b))
                continue;
            if (cfg.isLoopHeader[b] && !include_headers)
                continue;
            if (in[b] != out[b]) {
                std::ostringstream os;
                os << what << ": method " << m << " block " << b
                   << " violates flow conservation (in " << in[b]
                   << ", out " << out[b] << ')';
                addViolation(report, os.str());
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

/** Dump one edge-profile set as whitespace-separated counts. */
void
dumpEdgeSet(std::ostringstream &os, const profile::EdgeProfileSet &set,
            const char *tag)
{
    os << tag << '\n';
    for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
        for (const auto &per_block : set.perMethod[m].counts()) {
            for (std::uint64_t count : per_block)
                os << count << ' ';
        }
        os << '\n';
    }
}

/**
 * Serialize everything observable about one engine's run — simulated
 * clock, machine stats, ground truth, one-time profile, full BLPP path
 * tables, PEP path tables and sampling stats. Byte-equality of two
 * such strings is the docs/ENGINE.md determinism contract; the
 * engine-specific methodsDecoded/templateInvalidations counters are
 * deliberately excluded (they differ by design).
 */
std::string
serializeEngineRun(const vm::Machine &machine, const ExactOracle &oracle,
                   const core::FullPathProfiler &full,
                   const core::PepProfiler &pep)
{
    std::ostringstream os;
    dumpEdgeSet(os, machine.truthEdges(), "truth");
    dumpEdgeSet(os, machine.oneTimeEdges(), "one-time");
    dumpEdgeSet(os, pep.edgeProfile(), "pep-edges");

    const auto dump_paths = [&os](const auto &profiles,
                                  const char *tag) {
        os << tag << '\n';
        for (const auto &[key, vp] : profiles) {
            os << key.first << " v" << key.second << ':';
            std::map<std::uint64_t, std::uint64_t> ordered;
            for (const auto &[number, record] : vp->paths.paths())
                ordered[number] = record.count;
            for (const auto &[number, count] : ordered)
                os << ' ' << number << '=' << count;
            os << '\n';
        }
    };
    dump_paths(full.versionProfiles(), "full-paths");
    dump_paths(pep.versionProfiles(), "pep-paths");

    const vm::MachineStats &stats = machine.stats();
    const core::PepStats &pep_stats = pep.pepStats();
    os << "oracle " << oracle.totalSegments() << '\n'
       << "stats " << stats.instructionsExecuted << ' '
       << stats.methodInvocations << ' ' << stats.yieldpointsExecuted
       << ' ' << stats.timerTicks << ' ' << stats.compileCycles << ' '
       << stats.compiles << ' ' << stats.osrs << ' '
       << stats.layoutMisses << ' ' << stats.branchesExecuted << '\n'
       << "pep-stats " << pep_stats.pathsCompleted << ' '
       << pep_stats.samplesTaken << ' ' << pep_stats.samplesRecorded
       << '\n'
       << "clock " << machine.now() << '\n';
    return os.str();
}

/** One engine's complete outcome: the serialized observables, or the
 *  panic/fatal that killed the run. */
struct EngineRun
{
    std::string blob;
    std::string death;
};

/** Run the program on a fresh machine pinned to `kind`, with the same
 *  hook set either engine run gets. */
EngineRun
runEngineOnce(const bytecode::Program &program, const DiffOptions &opts,
              vm::EngineKind kind)
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
    const PepConfig pep_config =
        opts.pepConfigs.empty() ? PepConfig{} : opts.pepConfigs.front();
    core::SimplifiedArnoldGrove controller(pep_config.samples,
                                           pep_config.stride);
    core::PepOptions pep_options;
    pep_options.scheme = opts.scheme;
    pep_options.mode = opts.mode;
    pep_options.placement = opts.placement;
    pep_options.kIterations = opts.kIterations;
    core::PepProfiler pep(machine, controller, pep_options);

    machine.addHooks(&oracle);
    machine.addCompileObserver(&oracle);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);

    // Both engine machines install the identical reoptimization
    // pipeline, fed by their own (deterministically identical) PEP
    // profiler — layout and cloning decisions replay byte-for-byte,
    // keeping the check-7 contract meaningful for optimized runs.
    opt::PepConsumer consumer(pep);
    opt::PipelineOptions pipeline_options;
    pipeline_options.layout = opts.optLayout;
    pipeline_options.clone = opts.optClone;
    opt::OptPipeline pipeline(consumer, pipeline_options);
    if (opts.optLayout || opts.optClone)
        machine.addCompilePass(&pipeline);

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
    result.blob = serializeEngineRun(machine, oracle, full, pep);
    return result;
}

/** First line two serialized runs disagree on, truncated for the
 *  violation message. */
std::string
firstBlobDiff(const std::string &a, const std::string &b)
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
            return "switch [" + trim(more_a ? la : "<eof>") +
                   "] vs threaded [" + trim(more_b ? lb : "<eof>") +
                   ']';
        }
    }
}

/**
 * Check 7: run the program once per execution engine on otherwise-
 * identical machines and byte-compare every observable. A run that
 * dies (e.g. the runaway-cycle guard) must die identically on both
 * engines; the engine-divergence injection seeds the threaded run's
 * Irnd stream differently, so this check must report a divergence.
 */
void
runEngineCrossCheck(const bytecode::Program &program,
                    const DiffOptions &opts, DiffReport &report)
{
    const EngineRun sw =
        runEngineOnce(program, opts, vm::EngineKind::Switch);
    const EngineRun th =
        runEngineOnce(program, opts, vm::EngineKind::Threaded);
    if (sw.death != th.death) {
        addViolation(report,
                     "engines: switch run [" +
                         (sw.death.empty() ? "clean" : sw.death) +
                         "] but threaded run [" +
                         (th.death.empty() ? "clean" : th.death) + ']');
    } else if (!sw.death.empty()) {
        report.notes.push_back(
            "engines: both engine runs died identically (" + sw.death +
            "); byte comparison skipped");
    } else if (sw.blob != th.blob) {
        addViolation(report,
                     "engines: switch and threaded observables "
                     "diverge: " +
                         firstBlobDiff(sw.blob, th.blob));
    }
}

/** Whether check 7 runs: the other injections corrupt the main run's
 *  profiler state, which doesn't exist on the cross-check machines —
 *  skip the redundant runs. */
bool
crossCheck(const DiffOptions &opts)
{
    return opts.crossCheckEngines &&
           (opts.inject == InjectKind::None ||
            opts.inject == InjectKind::EngineDivergence);
}

/** Memberwise dump of everything an instrumentation plan carries, for
 *  byte-comparing independently built plans. */
std::string
serializePlan(const profile::InstrumentationPlan &plan)
{
    std::ostringstream os;
    const auto dump_action = [&os](const profile::EdgeAction &a) {
        os << a.increment << ',' << a.endsPath << ',' << a.endAdd << ','
           << a.restart << ' ';
    };
    os << static_cast<int>(plan.mode) << ' ' << plan.enabled << ' '
       << plan.totalPaths << ' ' << plan.numInstrumentedEdges << '\n';
    for (const profile::HeaderAction &h : plan.headerActions)
        os << h.endsPath << ',' << h.endAdd << ',' << h.restart << ' ';
    os << '\n';
    for (const profile::EdgeAction &a : plan.flatEdgeActions)
        dump_action(a);
    os << '\n';
    for (const std::uint32_t base : plan.edgeBase)
        os << base << ' ';
    os << '\n';
    return os.str();
}

/**
 * Check 8 (k-BLPP degeneracy, docs/KBLPP.md): instrumentation plans
 * are a pure function of the CFG, mode, scheme and placement — never
 * of k. Rebuild every method's profiling state from pristine inputs at
 * k = 1 and k = kIterations and byte-compare the serialized plans,
 * then prove the k = 1 id space *is* the raw
 * Ball-Larus range [0, totalPaths).
 */
void
checkKDegeneracy(const vm::Machine &machine, const DiffOptions &opts,
                 DiffReport &report)
{
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const bytecode::MethodId method =
            static_cast<bytecode::MethodId>(m);
        const bytecode::MethodCfg &cfg = machine.info(method).cfg;
        const auto legacy = core::buildProfilingState(
            cfg, method, 0, opts.mode, opts.scheme, nullptr,
            opts.placement, 1);
        const auto kstate = core::buildProfilingState(
            cfg, method, 0, opts.mode, opts.scheme, nullptr,
            opts.placement, opts.kIterations);
        if (serializePlan(legacy->plan) !=
            serializePlan(kstate->plan)) {
            addViolation(report,
                         "k-degeneracy: method " + std::to_string(m) +
                             " plan built at k=" +
                             std::to_string(opts.kIterations) +
                             " differs from the k=1 plan");
        }
        if (legacy->plan.enabled &&
            legacy->kpath.maxId() != legacy->plan.totalPaths) {
            std::ostringstream os;
            os << "k-degeneracy: method " << m << " k=1 id space "
               << legacy->kpath.maxId() << " != totalPaths "
               << legacy->plan.totalPaths;
            addViolation(report, os.str());
        }
    }
}

/**
 * The static mirror of the dynamic oracles: run the verify passes
 * (docs/ANALYSIS.md) over the machine's installed versions, both
 * profilers' plans, and every recorded profile, turning error
 * diagnostics into violations. Running this inside every fuzz
 * iteration continuously proves the static layer agrees with the
 * dynamic checks — no false alarms on clean runs, and the
 * impossible-profile injection is rejected without executing another
 * instruction.
 */
void
runStaticVerifyPasses(
    const vm::Machine &machine, core::FullPathProfiler &full,
    const std::vector<std::unique_ptr<core::PepProfiler>> &peps,
    const DiffOptions &opts, bool bytecode_level_truth,
    DiffReport &report)
{
    analysis::DiagnosticList diags;
    analysis::verifyMachine(machine, diags);

    const auto audit_engine = [&](core::PathEngine &engine,
                                  const std::string &what,
                                  std::uint64_t max_total) {
        analysis::RealizabilityOptions ropts;
        ropts.what = what;
        ropts.walkMultiplicity = opts.kIterations;
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
            analysis::checkKPathScheme(kinput, diags);
            analysis::checkPathProfileRealizability(
                vp->state->plan, *vp->state->reconstructor, vp->paths,
                ropts, max_total, name, /*has_version=*/true,
                key.second, diags, &vp->state->kpath);
        }
    };
    audit_engine(full, "full-path profile", full.pathsStored());
    for (std::size_t p = 0; p < peps.size(); ++p) {
        std::ostringstream tag;
        tag << "pep(" << opts.pepConfigs[p].samples << ','
            << opts.pepConfigs[p].stride << ')';
        audit_engine(*peps[p], tag.str() + " paths",
                     peps[p]->pepStats().samplesRecorded);
        // The continuous edge profile's conservation/bounds only
        // apply at bytecode level when no synthesized (inlined or
        // cloned) CFG is folded in, mirroring the dynamic check-5
        // gate.
        if (bytecode_level_truth) {
            analysis::RealizabilityOptions ropts;
            ropts.what = tag.str() + " edges";
            ropts.maxWalks = peps[p]->pepStats().samplesRecorded;
            ropts.walkMultiplicity = opts.kIterations;
            analysis::checkEdgeSetRealizability(
                machine, peps[p]->edgeProfile(), ropts, diags);
        }
    }

    std::vector<analysis::Diagnostic> sorted = diags.all();
    analysis::sortDiagnostics(sorted);
    for (const analysis::Diagnostic &d : sorted) {
        if (d.severity == analysis::Severity::Error) {
            addViolation(report,
                         "verify: " + analysis::formatDiagnostic(d));
        }
    }
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

    std::vector<std::unique_ptr<core::SimplifiedArnoldGrove>>
        controllers;
    std::vector<std::unique_ptr<core::PepProfiler>> peps;
    for (const PepConfig &pc : opts.pepConfigs) {
        controllers.push_back(
            std::make_unique<core::SimplifiedArnoldGrove>(pc.samples,
                                                          pc.stride));
        core::PepOptions pep_options;
        pep_options.scheme = opts.scheme;
        pep_options.mode = opts.mode;
        pep_options.placement = opts.placement;
        pep_options.kIterations = opts.kIterations;
        peps.push_back(std::make_unique<core::PepProfiler>(
            machine, *controllers.back(), pep_options));
    }

    machine.addHooks(&oracle);
    machine.addCompileObserver(&oracle);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);
    for (auto &pep : peps) {
        machine.addHooks(pep.get());
        machine.addCompileObserver(pep.get());
    }

    // The profile-guided reoptimization pipeline (src/opt/), fed by
    // the first PEP configuration's live profile. Installed before the
    // first iteration so tier-up recompiles run through it.
    std::unique_ptr<opt::PepConsumer> consumer;
    std::unique_ptr<opt::OptPipeline> pipeline;
    if ((opts.optLayout || opts.optClone) && !peps.empty()) {
        consumer = std::make_unique<opt::PepConsumer>(*peps.front());
        opt::PipelineOptions pipeline_options;
        pipeline_options.layout = opts.optLayout;
        pipeline_options.clone = opts.optClone;
        pipeline =
            std::make_unique<opt::OptPipeline>(*consumer,
                                               pipeline_options);
        machine.addCompilePass(pipeline.get());
    }

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
    // nothing further executes. Check 5 inspects the recorded profile
    // and the static realizability pass below rejects it too.
    if (opts.inject == InjectKind::ImpossibleProfile && !peps.empty())
        corruptPepEdgeProfile(machine, *peps.front());

    // Once a version runs a synthesized body (inlined or cloned), its
    // ground truth keeps bytecode-level *branch* edges only; the
    // whole-CFG conservation checks below no longer apply, exactly as
    // under enableInlining.
    bool any_clone = false;
    for (std::size_t m = 0; m < machine.numMethods() && !any_clone;
         ++m) {
        const bytecode::MethodId method =
            static_cast<bytecode::MethodId>(m);
        for (std::uint32_t v = 0; v < machine.numVersions(method); ++v) {
            if (machine.versionAt(method, v)->cloneApplied) {
                any_clone = true;
                break;
            }
        }
    }
    const bool bytecode_level_truth = !opts.enableInlining && !any_clone;
    if (any_clone && !opts.enableInlining) {
        report.notes.push_back(
            "cloned versions installed: bytecode-level conservation "
            "checks skipped");
    }

    // Check 1: the oracle read the interpreter's event stream the way
    // the interpreter meant it.
    checkEdgeTablesEqual(oracle.edges(), machine.truthEdges(),
                         "oracle edge mirror", report);

    // Check 8: k never changes what gets instrumented.
    if (opts.kIterations > 1)
        checkKDegeneracy(machine, opts, report);

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
        std::ostringstream tag;
        tag << "pep(" << opts.pepConfigs[p].samples << ','
            << opts.pepConfigs[p].stride << ')';
        const std::string what = tag.str();

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
        if (bytecode_level_truth) {
            checkConservation(pep.edgeProfile(), machine,
                              /*include_headers=*/false,
                              what + " edge profile", report);
        }
    }

    // Check 6: the edge profile derived from full BLPP paths. Paths of
    // versions running a synthesized body (inlined or cloned) fold
    // onto the bytecode tables exactly like ground truth, so the bound
    // always holds; flow conservation needs pure bytecode-level truth.
    try {
        profile::EdgeProfileSet derived =
            core::edgeProfileFromPaths(machine, full);
        checkEdgeTablesBounded(derived, machine.truthEdges(),
                               "full-derived edge profile", report);
        const bool clean_pairing = oracle.droppedFrames() == 0 &&
                                   oracle.adoptedFrames() == 0;
        if (bytecode_level_truth) {
            checkConservation(derived, machine, clean_pairing,
                              "full-derived edge profile", report);
            if (!clean_pairing) {
                report.notes.push_back(
                    "frames dropped or adopted mid-path: header "
                    "conservation skipped");
            }
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
    if (opts.runStaticVerify) {
        runStaticVerifyPasses(machine, full, peps, opts,
                              bytecode_level_truth, report);
    }

    return report;
}

namespace {

/**
 * Serialize everything observable about a cooperative run — ground
 * truth, the PEP edge profile, every per-version path table, PEP stats,
 * scheduler counters — into one string. Byte-equality of two such
 * strings is the determinism contract of docs/RUNTIME.md.
 */
std::string
serializeCoopRun(const vm::Machine &machine,
                 const core::PepProfiler &pep,
                 const runtime::CoopStats &stats)
{
    std::ostringstream os;
    const auto dump_edges = [&os](const profile::EdgeProfileSet &set,
                                  const char *tag) {
        os << tag << '\n';
        for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
            for (const auto &per_block : set.perMethod[m].counts()) {
                for (std::uint64_t count : per_block)
                    os << count << ' ';
            }
            os << '\n';
        }
    };
    dump_edges(machine.truthEdges(), "truth");
    dump_edges(pep.edgeProfile(), "pep-edges");

    os << "pep-paths\n";
    for (const auto &[key, vp] : pep.versionProfiles()) {
        os << key.first << " v" << key.second << ':';
        std::map<std::uint64_t, std::uint64_t> ordered;
        for (const auto &[number, record] : vp->paths.paths())
            ordered[number] = record.count;
        for (const auto &[number, count] : ordered)
            os << ' ' << number << '=' << count;
        os << '\n';
    }

    const core::PepStats &pep_stats = pep.pepStats();
    os << "stats " << pep_stats.pathsCompleted << ' '
       << pep_stats.samplesTaken << ' ' << pep_stats.samplesRecorded
       << ' ' << stats.contextSwitches << ' '
       << stats.requestsCompleted << ' ' << stats.resumes << ' '
       << machine.stats().instructionsExecuted << ' '
       << machine.now() << '\n';
    return os.str();
}

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

        const std::string blob =
            serializeCoopRun(machine, pep, scheduler.stats());
        if (run == 0) {
            first_blob = blob;
            interleaved_truth = machine.truthEdges();
            report.pepSamplesRecorded =
                pep.pepStats().samplesRecorded;
        } else if (blob != first_blob) {
            addViolation(report,
                         "determinism: repeating the cooperative run "
                         "with identical seeds changed the serialized "
                         "profiles");
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

    // Check 4: aggregation strategy changes throughput, never counts.
    if (opts.checkAggregation) {
        runtime::ThroughputOptions t_options;
        t_options.workers = opts.workers;
        t_options.epochRequests = opts.epochRequests;
        t_options.params = params;

        t_options.aggregation =
            runtime::ThroughputOptions::Aggregation::Sharded;
        const runtime::ThroughputResult sharded =
            runtime::runThroughput(stream, t_options);
        t_options.aggregation =
            runtime::ThroughputOptions::Aggregation::Mutex;
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
        if (sharded.paths != mutex_global.paths) {
            addViolation(report,
                         "sharded vs mutex path totals diverge");
        }
        report.blppPaths = sharded.pathRecords;

        // Checks 5-6: the ring transport. Ample capacity first — the
        // run should be drop-free, making the mutex identity check
        // applicable; then a deliberately tiny ring, which must drop
        // (and count every drop) while staying bounded by the mutex
        // totals. Conservation is checked on both: a transport that
        // loses a sample without counting it (the ring-lost-sample
        // injection, or a real accounting bug) fails here.
        if (opts.checkRing) {
            t_options.aggregation =
                runtime::ThroughputOptions::Aggregation::Ring;
            t_options.ring.capacity = opts.ringCapacity;
            t_options.ring.injectLoseAt =
                opts.inject == InjectKind::RingLostSample ? 10 : 0;
            const runtime::ThroughputResult ring =
                runtime::runThroughput(stream, t_options);

            checkRingConservation(ring, "ring (ample)", report);
            if (ring.transport.dropped == 0) {
                checkEdgeTablesEqual(ring.edges, mutex_global.edges,
                                     "drop-free ring vs mutex edge "
                                     "totals",
                                     report);
                if (ring.paths != mutex_global.paths) {
                    addViolation(report,
                                 "drop-free ring vs mutex path totals "
                                 "diverge");
                }
            } else {
                std::ostringstream os;
                os << "ring (ample) dropped "
                   << ring.transport.dropped
                   << " samples; identity check skipped";
                report.notes.push_back(os.str());
            }
            if (ring.windowAdvances == 0 &&
                ring.transport.epochMarks >
                    ring.transport.droppedEpochMarks) {
                addViolation(report,
                             "ring windows never advanced despite "
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
                        it == mutex_global.paths.end() ? 0
                                                       : it->second;
                    if (count > reference) {
                        std::ostringstream os;
                        os << "ring (tight): path " << key.number
                           << " of method " << key.method
                           << " counted " << count << " > mutex "
                           << reference
                           << " — drops invented counts";
                        addViolation(report, os.str());
                        break;
                    }
                }
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
