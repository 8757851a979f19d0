/**
 * @file
 * Profiler tests at the core layer: the path engine's per-frame
 * register discipline across calls and recompilation, PEP's sampling
 * bookkeeping and layout-source fallback, the zero-cost property of
 * ground-truth recorders, the cost ordering of the reference
 * profilers, edge profiles derived from the paths of inlined and
 * cloned versions, and the threaded engine's inline path register
 * against the same profiler driven through a forwarding hook.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/path_accuracy.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "runtime/coop_scheduler.hh"
#include "runtime/request_stream.hh"
#include "testing/generator.hh"
#include "testing/observables.hh"
#include "vm/compiled_method.hh"
#include "vm/inliner.hh"
#include "vm/layout.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep::core {
namespace {

vm::SimParams
fastTick()
{
    vm::SimParams params;
    params.tickCycles = 100'000;
    return params;
}

/** Replay machine with every method pinned at Opt2. */
struct OptMachine
{
    explicit OptMachine(const bytecode::Program &program,
                        const vm::SimParams &params = fastTick())
        : machine(program, params)
    {
        advice.finalLevel.assign(machine.numMethods(),
                                 vm::OptLevel::Opt2);
        advice.oneTimeEdges = machine.truthEdges(); // empty, shaped
        machine.enableReplay(&advice);
    }

    vm::ReplayAdvice advice;
    vm::Machine machine;
};

TEST(PathEngine, GroundTruthRecorderAddsZeroCycles)
{
    const bytecode::Program program = test::callSwitchProgram();

    OptMachine plain(program);
    plain.machine.runIteration();
    const std::uint64_t base_cycles = plain.machine.now();

    OptMachine observed(program);
    FullPathProfiler truth(observed.machine,
                           profile::DagMode::HeaderSplit,
                           /*charge_costs=*/false);
    observed.machine.addHooks(&truth);
    observed.machine.addCompileObserver(&truth);
    observed.machine.runIteration();

    EXPECT_EQ(observed.machine.now(), base_cycles);
    EXPECT_GT(truth.pathsStored(), 0u);
}

TEST(PathEngine, ChargingProfilersCostMoreInOrder)
{
    const bytecode::Program program =
        workload::generateWorkload([] {
            auto spec = workload::standardSuite()[0];
            spec.outerIterations = 40;
            return spec;
        }());

    auto run_with = [&](auto attach) {
        OptMachine om(program);
        const auto keep_alive = attach(om.machine);
        (void)keep_alive;
        om.machine.runIteration();
        return om.machine.now();
    };

    const std::uint64_t base =
        run_with([](vm::Machine &) { return 0; });
    const std::uint64_t pep_instr = run_with([](vm::Machine &m) {
        static NeverSample never;
        auto pep = std::make_shared<PepProfiler>(m, never);
        m.addHooks(pep.get());
        m.addCompileObserver(pep.get());
        return pep;
    });
    const std::uint64_t blpp = run_with([](vm::Machine &m) {
        auto full = std::make_shared<FullPathProfiler>(
            m, profile::DagMode::BackEdgeTruncate, true,
            profile::NumberingScheme::BallLarus,
            PathStoreKind::Array);
        m.addHooks(full.get());
        m.addCompileObserver(full.get());
        return full;
    });
    const std::uint64_t perfect = run_with([](vm::Machine &m) {
        auto full = std::make_shared<FullPathProfiler>(
            m, profile::DagMode::HeaderSplit, true,
            profile::NumberingScheme::BallLarus,
            PathStoreKind::Hash);
        m.addHooks(full.get());
        m.addCompileObserver(full.get());
        return full;
    });

    // The paper's cost ordering: PEP instrumentation alone is cheap;
    // classic BLPP (array stores) costs more; hash-store perfect path
    // profiling costs the most.
    EXPECT_LT(base, pep_instr);
    EXPECT_LT(pep_instr, blpp);
    EXPECT_LT(blpp, perfect);
}

TEST(PathEngine, RegisterDisciplineSurvivesNestedCalls)
{
    // Recursive method: per-frame path registers must not interfere.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 1
.method fib 1 1 returns
    iload 0
    iconst 2
    if_icmpge rec
    iload 0
    ireturn
rec:
    iload 0
    iconst 1
    isub
    invoke fib
    iload 0
    iconst 2
    isub
    invoke fib
    iadd
    ireturn
.end
.method main 0 1
    iconst 10
    invoke fib
    iconst 0
    gstore
    return
.end
.main main
)");
    OptMachine om(program);
    test::AlwaysSample always;
    PepProfiler pep(om.machine, always);
    FullPathProfiler truth(om.machine, profile::DagMode::HeaderSplit,
                           false);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.addHooks(&truth);
    om.machine.addCompileObserver(&truth);
    om.machine.runIteration();

    EXPECT_EQ(om.machine.globals()[0], 55); // fib(10)

    // With 100% sampling, PEP's canonical paths == ground truth.
    const auto pep_paths = metrics::canonicalize(pep);
    const auto truth_paths = metrics::canonicalize(truth);
    ASSERT_GT(truth_paths.paths.size(), 0u);
    EXPECT_EQ(pep_paths.paths.size(), truth_paths.paths.size());
    for (const auto &[key, entry] : truth_paths.paths) {
        const auto it = pep_paths.paths.find(key);
        ASSERT_NE(it, pep_paths.paths.end());
        EXPECT_EQ(it->second.count, entry.count);
    }
}

TEST(PathEngine, BaselineFramesGenerateNoPathEvents)
{
    // Without replay/promotion, everything runs baseline: the engine
    // must observe no instrumented frames at all.
    const bytecode::Program program = test::callSwitchProgram();
    vm::SimParams params = fastTick();
    vm::Machine machine(program, params);
    FullPathProfiler truth(machine, profile::DagMode::HeaderSplit,
                           false);
    machine.addHooks(&truth);
    machine.addCompileObserver(&truth);
    machine.runIteration(); // too short for promotion
    EXPECT_EQ(truth.pathsStored(), 0u);
}

TEST(PathEngine, RecompilationKeepsPerVersionProfiles)
{
    const bytecode::Program program =
        workload::generateWorkload([] {
            auto spec = workload::standardSuite()[0];
            spec.outerIterations = 120;
            return spec;
        }());
    vm::Machine machine(program, fastTick());
    FullPathProfiler truth(machine, profile::DagMode::HeaderSplit,
                           false);
    machine.addHooks(&truth);
    machine.addCompileObserver(&truth);
    machine.runIteration(); // adaptive: opt1 then opt2 recompiles

    // Some method must have two instrumented versions (opt1 + opt2).
    std::size_t multi_version_methods = 0;
    std::map<bytecode::MethodId, int> versions_per_method;
    for (const auto &[key, vp] : truth.versionProfiles()) {
        (void)vp;
        versions_per_method[key.first] += 1;
    }
    for (const auto &[method, count] : versions_per_method) {
        if (count >= 2)
            ++multi_version_methods;
    }
    EXPECT_GT(multi_version_methods, 0u);

    // Canonicalization merges across versions without losing counts.
    const auto canonical = metrics::canonicalize(truth);
    std::uint64_t canonical_total = 0;
    for (const auto &[key, entry] : canonical.paths)
        canonical_total += entry.count;
    EXPECT_EQ(canonical_total, truth.pathsStored());
}

TEST(Pep, SampleCountsAreConsistent)
{
    const bytecode::Program program = test::callSwitchProgram();
    OptMachine om(program);
    SimplifiedArnoldGrove controller(4, 3);
    PepProfiler pep(om.machine, controller);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.runIteration();

    const PepStats &stats = pep.pepStats();
    EXPECT_LE(stats.samplesRecorded, stats.samplesTaken);
    EXPECT_LE(stats.firstTimeExpansions, stats.samplesRecorded);
    EXPECT_LE(stats.samplesRecorded, stats.pathsCompleted);
}

TEST(Pep, EdgeProfileIsExpansionOfSampledPaths)
{
    const bytecode::Program program = test::callSwitchProgram();
    OptMachine om(program);
    SimplifiedArnoldGrove controller(8, 3);
    PepProfiler pep(om.machine, controller);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.runIteration();

    // Rebuild the edge profile from the sampled path records; it must
    // equal the incrementally maintained one exactly.
    EXPECT_EQ(edgeProfileFromPaths(om.machine, pep), pep.edgeProfile());
}

TEST(Pep, LayoutSourceFallsBackUntilEvidence)
{
    const bytecode::Program program = test::callSwitchProgram();
    vm::Machine machine(program, fastTick());
    NeverSample never;
    PepProfiler pep(machine, never);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);

    // No PEP samples and no one-time data: nothing to offer.
    EXPECT_EQ(pep.layoutProfile(program.mainMethod), nullptr);

    // With baseline execution, the one-time profile becomes available.
    machine.runIteration();
    const profile::MethodEdgeProfile *source =
        pep.layoutProfile(program.mainMethod);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source,
              &machine.oneTimeEdges().perMethod[program.mainMethod]);
}

TEST(Pep, LayoutSourceUsesOwnProfileOnceRich)
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    spec.outerIterations = 100;
    const bytecode::Program program = workload::generateWorkload(spec);
    OptMachine om(program);
    test::AlwaysSample always;
    PepProfiler pep(om.machine, always);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.runIteration();

    bytecode::MethodId hot0 = 0;
    ASSERT_TRUE(program.findMethod("hot_0", hot0));
    ASSERT_GT(pep.edgeProfile().perMethod[hot0].totalCount(), 400u);
    EXPECT_EQ(pep.layoutProfile(hot0),
              &pep.edgeProfile().perMethod[hot0]);
}

TEST(Pep, ClearProfilesResetsEverything)
{
    const bytecode::Program program = test::callSwitchProgram();
    OptMachine om(program);
    test::AlwaysSample always;
    PepProfiler pep(om.machine, always);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.runIteration();
    ASSERT_GT(pep.pepStats().samplesRecorded, 0u);

    pep.clearProfiles();
    EXPECT_EQ(pep.pepStats().samplesRecorded, 0u);
    const auto canonical = metrics::canonicalize(pep);
    EXPECT_TRUE(canonical.paths.empty());
    std::uint64_t edges = 0;
    for (const auto &per_method : pep.edgeProfile().perMethod)
        edges += per_method.totalCount();
    EXPECT_EQ(edges, 0u);
}

TEST(InstrEdge, MatchesTruthOnOptBranches)
{
    const bytecode::Program program = test::callSwitchProgram();
    OptMachine om(program);
    InstrEdgeProfiler instr_edge(om.machine, /*charge_costs=*/false);
    om.machine.addHooks(&instr_edge);
    om.machine.runIteration();

    for (std::size_t m = 0; m < om.machine.numMethods(); ++m) {
        const auto id = static_cast<bytecode::MethodId>(m);
        const auto &cfg = om.machine.info(id).cfg;
        const auto &truth = om.machine.truthEdges().perMethod[m];
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            const auto kind = cfg.terminator[b];
            if (kind != bytecode::TerminatorKind::Cond &&
                kind != bytecode::TerminatorKind::Switch) {
                continue;
            }
            for (std::uint32_t i = 0; i < cfg.graph.succs(b).size();
                 ++i) {
                EXPECT_EQ(
                    instr_edge.edges().perMethod[m].edgeCount(
                        cfg::EdgeRef{b, i}),
                    truth.edgeCount(cfg::EdgeRef{b, i}));
            }
        }
    }
}

TEST(Pep, SpanningPlacementReproducesGroundTruthExactly)
{
    // PEP with Ball-Larus event-counting placement + 100% sampling
    // must still match the (direct-placement) ground truth recorder:
    // placement changes where increments sit, never what the register
    // holds at path ends.
    const bytecode::Program program = test::callSwitchProgram();
    OptMachine om(program);
    test::AlwaysSample always;
    PepOptions options;
    options.placement = profile::PlacementKind::SpanningTree;
    PepProfiler pep(om.machine, always, options);
    FullPathProfiler truth(om.machine, profile::DagMode::HeaderSplit,
                           false);
    om.machine.addHooks(&pep);
    om.machine.addCompileObserver(&pep);
    om.machine.addHooks(&truth);
    om.machine.addCompileObserver(&truth);
    om.machine.runIteration();

    const auto pep_paths = metrics::canonicalize(pep);
    const auto truth_paths = metrics::canonicalize(truth);
    ASSERT_GT(truth_paths.paths.size(), 0u);
    ASSERT_EQ(pep_paths.paths.size(), truth_paths.paths.size());
    for (const auto &[key, entry] : truth_paths.paths) {
        const auto it = pep_paths.paths.find(key);
        ASSERT_NE(it, pep_paths.paths.end());
        EXPECT_EQ(it->second.count, entry.count);
    }
}

TEST(PathEngine, OverflowedMethodIsSkippedGracefully)
{
    // A 60-diamond straight-line method overflows numbering; the
    // engine must run it uninstrumented without crashing.
    std::string body;
    for (int i = 0; i < 60; ++i) {
        const std::string n = std::to_string(i);
        body += "    irnd\n    ifeq t" + n + "\n    iinc 0 1\n"
                "    goto j" + n + "\nt" + n + ":\n    iinc 0 2\nj" +
                n + ":\n";
    }
    const bytecode::Program program = bytecode::assembleOrDie(
        ".globals 1\n.method main 0 1\n" + body +
        "    return\n.end\n.main main\n");

    OptMachine om(program);
    FullPathProfiler truth(om.machine, profile::DagMode::HeaderSplit,
                           false);
    om.machine.addHooks(&truth);
    om.machine.addCompileObserver(&truth);
    om.machine.runIteration();
    EXPECT_EQ(truth.pathsStored(), 0u);
    EXPECT_EQ(truth.overflowCount(), 1u);
}

/** Full path profiles of every optimized version, expanded back into
 *  edges, must reproduce the machine's ground truth exactly — also for
 *  versions that run a synthesized body. */
void
expectDerivedEdgesEqualTruth(vm::Machine &machine, PathEngine &engine)
{
    EXPECT_EQ(edgeProfileFromPaths(machine, engine),
              machine.truthEdges());
}

TEST(PathEngine, DerivedEdgesFoldInlinedVersionsLikeTruth)
{
    // main's loop calls a leaf with a branch of its own: the inlined
    // version's CFG has more blocks than main's, and the callee's
    // branch counts belong to the callee.
    const bytecode::Program program = bytecode::assembleOrDie(R"(
.globals 1
.method pick 1 1 returns
    iload 0
    iconst 3
    irem
    ifeq zero
    iconst 1
    ireturn
zero:
    iconst 2
    ireturn
.end
.method main 0 1
    iconst 40
    istore 0
loop:
    iload 0
    ifle done
    iload 0
    invoke pick
    iconst 0
    gload
    iadd
    iconst 0
    gstore
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
    vm::SimParams params = fastTick();
    params.enableInlining = true;
    OptMachine om(program, params);
    FullPathProfiler full(om.machine, profile::DagMode::HeaderSplit,
                          false);
    om.machine.addHooks(&full);
    om.machine.addCompileObserver(&full);
    om.machine.runIteration();

    const vm::CompiledMethod *main_version =
        om.machine.currentVersion(program.mainMethod);
    ASSERT_NE(main_version, nullptr);
    ASSERT_NE(main_version->inlinedBody, nullptr);
    expectDerivedEdgesEqualTruth(om.machine, full);
}

TEST(PathEngine, DerivedEdgesFoldClonedVersionsLikeTruth)
{
    const bytecode::Program program = test::simpleLoopProgram();
    vm::Machine probe(program, vm::SimParams{});
    probe.runIteration();
    vm::FixedLayoutSource source(probe.truthEdges());
    opt::LayoutSourceConsumer consumer(source);
    opt::OptPipeline pipeline(consumer);

    vm::Machine machine(program, vm::SimParams{});
    FullPathProfiler full(machine, profile::DagMode::HeaderSplit, false);
    machine.addHooks(&full);
    machine.addCompileObserver(&full);
    machine.addCompilePass(&pipeline);
    machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);
    ASSERT_TRUE(machine.currentVersion(program.mainMethod)->cloneApplied);
    machine.runIteration();

    expectDerivedEdgesEqualTruth(machine, full);
}

/**
 * Forwards every event to the hooks it wraps, the shape of perfbench's
 * CountingHooks. The machine sees an ordinary hook, so a path engine
 * behind it is always driven by events, never run inline.
 */
class ForwardingHooks final : public vm::ExecutionHooks
{
  public:
    explicit ForwardingHooks(vm::ExecutionHooks &inner) : inner_(inner) {}

    void
    onMethodEntry(const vm::FrameView &frame) override
    {
        inner_.onMethodEntry(frame);
    }
    void
    onMethodExit(const vm::FrameView &frame) override
    {
        inner_.onMethodExit(frame);
    }
    void
    onEdge(const vm::FrameView &frame, cfg::EdgeRef edge) override
    {
        inner_.onEdge(frame, edge);
    }
    void
    onEdgeFast(const vm::FrameView &frame, cfg::EdgeRef edge,
               std::uint32_t flat_id) override
    {
        inner_.onEdgeFast(frame, edge, flat_id);
    }
    void
    onLoopHeader(const vm::FrameView &frame, cfg::BlockId block) override
    {
        inner_.onLoopHeader(frame, block);
    }
    void
    onYieldpoint(const vm::FrameView &frame, vm::YieldpointKind kind,
                 bool tick_fired) override
    {
        inner_.onYieldpoint(frame, kind, tick_fired);
    }
    void
    onOsr(const vm::FrameView &frame, cfg::BlockId header) override
    {
        inner_.onOsr(frame, header);
    }

  private:
    vm::ExecutionHooks &inner_;
};

/** One PEP configuration of the inline-vs-hook sweeps. */
struct PepRun
{
    vm::EngineKind engine = vm::EngineKind::Switch;
    bool osr = false;
    std::uint32_t k = 1;
    std::uint32_t samples = 64;
    std::uint32_t stride = 17;

    /** Behind a ForwardingHooks wrapper instead of attached directly. */
    bool wrapped = false;
};

/** What one run left behind, and how much it exercised. */
struct PepOutcome
{
    std::string observables;
    std::uint64_t samplesRecorded = 0;
    std::uint64_t osrs = 0;
};

/** Attach PEP as `run` says, let `body` drive the machine, and collect
 *  the outcome. */
template <typename Body>
PepOutcome
runPep(const bytecode::Program &program, const PepRun &run,
       std::uint64_t tick_cycles, Body body)
{
    vm::SimParams params;
    params.engine = run.engine;
    params.enableOsr = run.osr;
    params.tickCycles = tick_cycles;
    vm::Machine machine(program, params);
    SimplifiedArnoldGrove controller(run.samples, run.stride);
    PepOptions options;
    options.scheme = profile::NumberingScheme::Smart;
    options.kIterations = run.k;
    PepProfiler pep(machine, controller, options);
    ForwardingHooks wrapper(pep);
    machine.addHooks(run.wrapped ? static_cast<vm::ExecutionHooks *>(&wrapper)
                                 : &pep);
    machine.addCompileObserver(&pep);
    body(machine);
    return {testing::serializeRun(machine, {.peps = {&pep}}),
            pep.pepStats().samplesRecorded, machine.stats().osrs};
}

TEST(PathEngine, InlineRegisterMatchesHookDrivenRegister)
{
    // Attached directly, PEP runs inline under the threaded engine and
    // through hooks under the switch engine; wrapped, it runs through
    // hooks under both. Every variant must leave byte-identical
    // observables: the same arithmetic, the same completions, and the
    // same sampleability rule, whichever yieldpoints core was skipped
    // at.
    std::uint64_t samples = 0;
    std::uint64_t osrs = 0;
    std::vector<bytecode::Program> programs = {test::wideSwitchProgram()};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        testing::FuzzSpec spec;
        spec.seed = seed;
        spec.loopBias = 0.5;
        programs.push_back(testing::generateProgram(spec));
    }
    // programs[i] is generator seed i's; programs[0] the wide switch.
    for (std::size_t seed = 0; seed < programs.size(); ++seed) {
        const bytecode::Program &program = programs[seed];
        for (const bool osr : {false, true}) {
            for (const std::uint32_t k : {1u, 2u, 4u}) {
                for (const auto &[s, t] :
                     {std::pair{1u, 1u}, std::pair{64u, 17u}}) {
                    std::string reference;
                    for (const vm::EngineKind engine :
                         {vm::EngineKind::Switch,
                          vm::EngineKind::Threaded}) {
                        for (const bool wrapped : {true, false}) {
                            const PepRun run{engine, osr, k, s, t, wrapped};
                            const PepOutcome outcome = runPep(
                                program, run, 9'000, [](vm::Machine &m) {
                                    for (int it = 0; it < 3; ++it)
                                        m.runIteration();
                                });
                            samples += outcome.samplesRecorded;
                            osrs += outcome.osrs;
                            if (reference.empty())
                                reference = outcome.observables;
                            EXPECT_EQ(outcome.observables, reference)
                                << "seed " << seed << " osr " << osr
                                << " k " << k << " PEP(" << s << ','
                                << t << ") "
                                << vm::engineKindName(engine)
                                << (wrapped ? " wrapped" : " direct");
                        }
                    }
                }
            }
        }
    }
    // The sweep must actually sample and replace frames.
    EXPECT_GT(samples, 0u);
    EXPECT_GT(osrs, 0u);
}

TEST(PathEngine, LateAdoptionRetranslatesAgainstThePlan)
{
    // main is compiled, and under the threaded engine translated,
    // before the machine adopts PEP as its inline path profiler. That
    // stream has no plan: adoption must drop it, or main's frames
    // would bind none and PEP would see none of main's paths.
    const bytecode::Program program = test::figure1Program();
    std::string reference;
    for (const vm::EngineKind engine :
         {vm::EngineKind::Switch, vm::EngineKind::Threaded}) {
        vm::SimParams params;
        params.engine = engine;
        params.tickCycles = 200;
        vm::Machine machine(program, params);
        SimplifiedArnoldGrove controller(1, 1);
        PepProfiler pep(machine, controller);
        machine.addCompileObserver(&pep);
        machine.compileNow(program.mainMethod, vm::OptLevel::Opt2);
        machine.addHooks(&pep);
        machine.runIteration();
        EXPECT_GT(pep.pepStats().samplesRecorded, 0u)
            << vm::engineKindName(engine);
        const std::string observables =
            testing::serializeRun(machine, {.peps = {&pep}});
        if (reference.empty())
            reference = observables;
        EXPECT_EQ(observables, reference) << vm::engineKindName(engine);
    }
}

TEST(PathEngine, InlineRegisterMatchesHooksUnderCooperativeThreads)
{
    // Parked threads keep their frames' registers and their pending
    // paths: a path is sampleable only at its own thread's next
    // opportunity, however the scheduler interleaves threads between.
    runtime::RequestStreamSpec spec;
    spec.seed = 21;
    spec.requests = 60;
    spec.handlers = 3;
    spec.leaves = 2;
    const runtime::RequestStream stream(spec);
    std::uint64_t samples = 0;
    for (const std::uint32_t threads : {1u, 3u}) {
        for (const bool osr : {false, true}) {
            for (const auto &[s, t] :
                 {std::pair{1u, 1u}, std::pair{64u, 17u}}) {
                std::string reference;
                for (const vm::EngineKind engine :
                     {vm::EngineKind::Switch, vm::EngineKind::Threaded}) {
                    for (const bool wrapped : {true, false}) {
                        const PepRun run{engine, osr, 1, s, t, wrapped};
                        const PepOutcome outcome = runPep(
                            stream.program(), run, 5'000,
                            [&](vm::Machine &machine) {
                                runtime::CoopScheduler scheduler(
                                    machine, {threads, 77});
                                scheduler.assignRoundRobin(stream);
                                scheduler.run();
                            });
                        samples += outcome.samplesRecorded;
                        if (reference.empty())
                            reference = outcome.observables;
                        EXPECT_EQ(outcome.observables, reference)
                            << threads << " threads, osr " << osr
                            << ", PEP(" << s << ',' << t << ") "
                            << vm::engineKindName(engine)
                            << (wrapped ? " wrapped" : " direct");
                    }
                }
            }
        }
    }
    EXPECT_GT(samples, 0u);
}

} // namespace
} // namespace pep::core
