/**
 * @file
 * Instrumentation-plan checker tests: the checker accepts everything
 * the real profiling pipeline builds (fixtures, random structured
 * programs, every mode/scheme/placement combination) and rejects
 * seeded violations of each invariant — duplicate path ids, an
 * increment on a spanning-tree edge, a nonzero hot-edge value under
 * smart numbering, tampered back-edge bookkeeping, and plans left
 * enabled after numbering overflow, and edge tables whose shape does
 * not match the CFG. The template-stream tests (checks 9 and 12
 * before they joined the stream proof) run the one stream proof,
 * analysis/verify/stream_proof.hh. Ends with a cross-validation
 * against the interpreter: dynamically observed path ids must lie in
 * the statically proven id space.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "analysis/plan_check.hh"
#include "analysis/verify/stream_proof.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "profile/spanning_placement.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/machine.hh"

namespace pep::analysis {
namespace {

using profile::DagMode;
using profile::NumberingScheme;
using profile::PlacementKind;

/** One fully built configuration, ready to check (and to tamper). */
struct Built
{
    bytecode::MethodCfg cfg;
    profile::PDag pdag;
    profile::DagEdgeFreqs freqs;
    profile::Numbering numbering;
    profile::InstrumentationPlan plan;
    profile::SpanningPlacement spanning;
    NumberingScheme scheme = NumberingScheme::BallLarus;
    PlacementKind placement = PlacementKind::Direct;
};

profile::DagEdgeFreqs
uniformFreqs(const cfg::Graph &dag)
{
    profile::DagEdgeFreqs freqs(dag.numBlocks());
    for (cfg::BlockId v = 0; v < dag.numBlocks(); ++v)
        freqs[v].assign(dag.succs(v).size(), 1.0);
    return freqs;
}

Built
build(const bytecode::Program &program, DagMode mode,
      NumberingScheme scheme, PlacementKind placement)
{
    Built b;
    b.cfg = bytecode::buildCfg(program.methods[program.mainMethod]);
    b.pdag = profile::buildPDag(b.cfg, mode);
    b.freqs = uniformFreqs(b.pdag.dag);
    b.numbering = profile::numberPaths(
        b.pdag, scheme,
        scheme == NumberingScheme::BallLarus ? nullptr : &b.freqs);
    b.plan = profile::buildInstrumentationPlan(b.cfg, b.pdag,
                                               b.numbering);
    b.scheme = scheme;
    b.placement = placement;
    if (placement == PlacementKind::SpanningTree) {
        b.spanning = profile::computeSpanningPlacement(
            b.pdag, b.numbering, &b.freqs);
        profile::applySpanningPlacement(b.cfg, b.pdag, b.spanning,
                                        b.plan);
    }
    return b;
}

PlanCheckInput
inputFor(const Built &b)
{
    PlanCheckInput input;
    input.cfg = &b.cfg;
    input.pdag = &b.pdag;
    input.numbering = &b.numbering;
    input.plan = &b.plan;
    input.placement = b.placement;
    input.spanning = b.placement == PlacementKind::SpanningTree
                         ? &b.spanning
                         : nullptr;
    input.scheme = b.scheme;
    input.freqs = &b.freqs;
    input.methodName = "main";
    return input;
}

bool
hasError(const DiagnosticList &diagnostics, const std::string &substr)
{
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.severity == Severity::Error &&
            d.message.find(substr) != std::string::npos)
            return true;
    }
    return false;
}

std::string
renderAll(const DiagnosticList &diagnostics)
{
    std::string out;
    for (const Diagnostic &d : diagnostics.all())
        out += formatDiagnostic(d) + "\n";
    return out;
}

TEST(PlanCheck, AcceptsFixturesInEveryConfiguration)
{
    for (const bytecode::Program &program :
         {test::simpleLoopProgram(), test::figure1Program(),
          test::callSwitchProgram()}) {
        for (const DagMode mode :
             {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
            for (const NumberingScheme scheme :
                 {NumberingScheme::BallLarus, NumberingScheme::Smart,
                  NumberingScheme::SmartInverted}) {
                for (const PlacementKind placement :
                     {PlacementKind::Direct,
                      PlacementKind::SpanningTree}) {
                    const Built b =
                        build(program, mode, scheme, placement);
                    DiagnosticList diagnostics;
                    EXPECT_TRUE(checkInstrumentationPlan(
                        inputFor(b), diagnostics))
                        << renderAll(diagnostics);
                }
            }
        }
    }
}

TEST(PlanCheck, AcceptsRandomStructuredPrograms)
{
    int checked = 0;
    for (std::uint64_t seed = 900; seed < 912; ++seed) {
        const bytecode::Program program =
            test::randomStructuredProgram(seed, 8);
        for (const DagMode mode :
             {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
            const Built b = build(program, mode,
                                  NumberingScheme::BallLarus,
                                  PlacementKind::SpanningTree);
            DiagnosticList diagnostics;
            EXPECT_TRUE(
                checkInstrumentationPlan(inputFor(b), diagnostics))
                << "seed " << seed << "\n"
                << renderAll(diagnostics);
            ++checked;
        }
    }
    EXPECT_GE(checked, 24);
}

/** Find a DAG node with at least two outgoing edges. */
cfg::BlockId
branchingDagNode(const Built &b)
{
    for (cfg::BlockId v = 0; v < b.pdag.dag.numBlocks(); ++v) {
        if (b.pdag.dag.succs(v).size() >= 2)
            return v;
    }
    return cfg::kInvalidBlock;
}

TEST(PlanCheck, RejectsDuplicatePathId)
{
    // Seeded bug 1: two sibling edges share a value, so two distinct
    // paths collapse onto one id. The interval check must prove the
    // overlap statically.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    const cfg::BlockId v = branchingDagNode(b);
    ASSERT_NE(v, cfg::kInvalidBlock);

    profile::Numbering tampered = b.numbering;
    tampered.val[v][1] = tampered.val[v][0];
    b.numbering = tampered;
    b.plan = profile::buildInstrumentationPlan(b.cfg, b.pdag,
                                               b.numbering);

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "duplicate path ids"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsGapInPathIds)
{
    // Shifting a sibling value up opens a hole in [0, numPaths).
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    const cfg::BlockId v = branchingDagNode(b);
    ASSERT_NE(v, cfg::kInvalidBlock);

    // Make the larger of the two sibling values larger still.
    const std::uint32_t hi =
        b.numbering.val[v][0] > b.numbering.val[v][1] ? 0 : 1;
    b.numbering.val[v][hi] += 1;
    b.plan = profile::buildInstrumentationPlan(b.cfg, b.pdag,
                                               b.numbering);

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "path-id gap") ||
                hasError(diagnostics, "node"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsIncrementOnSpanningTreeEdge)
{
    // Seeded bug 2: a spanning-tree edge carries an increment. The
    // chord-only check must catch it even though the replayed sums
    // also drift.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus,
                    PlacementKind::SpanningTree);

    cfg::BlockId tv = cfg::kInvalidBlock;
    std::uint32_t ti = 0;
    for (cfg::BlockId v = 0;
         v < b.pdag.dag.numBlocks() && tv == cfg::kInvalidBlock; ++v) {
        for (std::uint32_t i = 0; i < b.spanning.inTree[v].size();
             ++i) {
            if (b.spanning.inTree[v][i]) {
                tv = v;
                ti = i;
                break;
            }
        }
    }
    ASSERT_NE(tv, cfg::kInvalidBlock) << "no tree edge found";

    b.spanning.increment[tv][ti] += 3;
    b.plan = profile::buildInstrumentationPlan(b.cfg, b.pdag,
                                               b.numbering);
    profile::applySpanningPlacement(b.cfg, b.pdag, b.spanning, b.plan);

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics,
                         "increment placed on a spanning-tree edge"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsNonzeroHotEdgeIncrement)
{
    // Seeded bug 3: claim smart numbering but hand the checker a
    // Ball-Larus numbering and frequencies that favor the *second*
    // successor — the hottest edge then carries a nonzero value.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    b.scheme = NumberingScheme::Smart;
    bool biased = false;
    for (cfg::BlockId v = 0; v < b.pdag.dag.numBlocks(); ++v) {
        if (b.freqs[v].size() >= 2) {
            b.freqs[v][1] = 10.0;
            biased = true;
        }
    }
    ASSERT_TRUE(biased);

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "smart numbering left value"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsBackEdgeThatDoesNotEndPath)
{
    Built b = build(test::figure1Program(), DagMode::BackEdgeTruncate,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    ASSERT_FALSE(b.cfg.backEdges.empty());
    const cfg::EdgeRef back = b.cfg.backEdges[0];
    b.plan.flatEdgeActions[b.plan.flatEdgeId(back)].endsPath = false;

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics,
                         "truncated back edge does not end the path"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsTamperedBackEdgeEndAdd)
{
    Built b = build(test::figure1Program(), DagMode::BackEdgeTruncate,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    ASSERT_FALSE(b.cfg.backEdges.empty());
    const cfg::EdgeRef back = b.cfg.backEdges[0];
    b.plan.flatEdgeActions[b.plan.flatEdgeId(back)].endAdd += 1;

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "back-edge end/restart"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsWrongEdgeIncrement)
{
    // A single off-by-one increment must fail both the consistency
    // check and the semantic replay.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    bool tampered = false;
    for (profile::EdgeAction &action : b.plan.flatEdgeActions) {
        if (!action.endsPath) {
            action.increment += 1;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
}

TEST(PlanCheck, RejectsEnabledPlanAfterOverflow)
{
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    b.numbering.overflow = true; // plan stays enabled: contradiction

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics,
                         "plan is enabled despite numbering overflow"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsTamperedFlatAction)
{
    // The engines dispatch off the edge table, so a corrupt entry
    // miscounts paths. Checks 4 and 7 read that same table, so the
    // corruption cannot hide behind a second copy.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    ASSERT_FALSE(b.plan.flatEdgeActions.empty());
    b.plan.flatEdgeActions[0].increment += 7;

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "does not match expected"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsStaleFlattenedTable)
{
    // A table laid out for another CFG (here: a different method's
    // plan) no longer covers this CFG's edges; check 8 must refuse it
    // before checks 4 and 7 index through it.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    const Built other = build(test::simpleLoopProgram(),
                              DagMode::HeaderSplit,
                              NumberingScheme::BallLarus,
                              PlacementKind::Direct);
    ASSERT_NE(other.plan.flatEdgeActions.size(),
              b.plan.flatEdgeActions.size());
    b.plan.flatEdgeActions = other.plan.flatEdgeActions;

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "flattened table covers"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsCorruptEdgeBase)
{
    // A wrong offset makes every lookup for that block hit another
    // block's actions; the prefix-sum property must be proven, not
    // assumed.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    ASSERT_GE(b.plan.edgeBase.size(), 2u);
    b.plan.edgeBase[1] += 1;

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "prefix sum") ||
                hasError(diagnostics, "flattened table covers"))
        << renderAll(diagnostics);
}

/**
 * Build main()'s template stream exactly as the lint pipeline does,
 * optionally tamper with it, and run the stream proof. Everything
 * lives in one scope so the DecodedMethod's back-pointers stay valid.
 */
DiagnosticList
checkTemplatesOf(const bytecode::Program &program,
                 const std::function<void(vm::DecodedMethod &)> &tamper,
                 bool &ok)
{
    const bytecode::Method &method =
        program.methods[program.mainMethod];
    const vm::MethodInfo info = vm::buildMethodInfo(method);
    vm::CompiledMethod cm;
    const vm::CostModel cost;
    cm.scaledCost.resize(bytecode::kNumOpcodes);
    for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
        cm.scaledCost[op] =
            cost.instrCost(static_cast<bytecode::Opcode>(op));
    cm.branchLayout.assign(info.cfg.graph.numBlocks(), -1);
    vm::DecodedMethod decoded =
        vm::translateMethod(method, info, cm);
    if (tamper)
        tamper(decoded);

    TemplateCheckInput input;
    input.code = &method;
    input.info = &info;
    input.cm = &cm;
    input.decoded = &decoded;
    input.methodName = method.name;

    DiagnosticList diagnostics;
    ok = checkTemplateStream(input, diagnostics);
    return diagnostics;
}

TEST(PlanCheck, NotesSkippedEnumerationOverBudget)
{
    // 13 diamonds in sequence: 2^13 = 8192 Entry->Exit paths, over the
    // semantic proof's budget. Check 7 steps aside with a note; every
    // other check still runs and passes.
    std::string text = ".globals 1\n.method main 0 1\n";
    for (int d = 0; d < 13; ++d) {
        const std::string n = std::to_string(d);
        text += "    irnd\n    ifeq t" + n + "\n    iinc 0 1\n    goto j" +
                n + "\nt" + n + ":\n    iinc 0 2\nj" + n + ":\n";
    }
    text += "    return\n.end\n.main main\n";
    const Built b = build(bytecode::assembleOrDie(text),
                          DagMode::HeaderSplit, NumberingScheme::BallLarus,
                          PlacementKind::Direct);
    ASSERT_EQ(b.plan.totalPaths, 8192u);
    ASSERT_GT(b.plan.totalPaths, kSimulateLimit);

    DiagnosticList diagnostics;
    EXPECT_TRUE(checkInstrumentationPlan(inputFor(b), diagnostics))
        << renderAll(diagnostics);
    ASSERT_EQ(diagnostics.all().size(), 1u) << renderAll(diagnostics);
    EXPECT_EQ(diagnostics.all()[0].severity, Severity::Note);
    EXPECT_NE(diagnostics.all()[0].message.find(
                  "semantic enumeration skipped"),
              std::string::npos)
        << renderAll(diagnostics);
}

TEST(PlanCheck, TemplateStreamAcceptsTranslatedMethods)
{
    for (const bytecode::Program &program :
         {test::simpleLoopProgram(), test::figure1Program(),
          test::callSwitchProgram()}) {
        bool ok = false;
        const DiagnosticList diagnostics =
            checkTemplatesOf(program, nullptr, ok);
        EXPECT_TRUE(ok) << renderAll(diagnostics);
    }
    for (std::uint64_t seed = 900; seed < 912; ++seed) {
        bool ok = false;
        const DiagnosticList diagnostics = checkTemplatesOf(
            test::randomStructuredProgram(seed, 8), nullptr, ok);
        EXPECT_TRUE(ok) << "seed " << seed << "\n"
                        << renderAll(diagnostics);
    }
}

TEST(PlanCheck, TemplateStreamRejectsCorruptFlatBase)
{
    // A wrong burned-in base makes onEdgeFast index another block's
    // flat actions — the exact miscounting a stale or mistranslated
    // stream produces at runtime.
    bool ok = true;
    const DiagnosticList diagnostics = checkTemplatesOf(
        test::figure1Program(),
        [](vm::DecodedMethod &dm) { dm.stream[0].flatBase += 1; },
        ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(hasError(diagnostics, "carries flat base"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, TemplateStreamRejectsMismatchedEdgeBase)
{
    bool ok = true;
    const DiagnosticList diagnostics = checkTemplatesOf(
        test::figure1Program(),
        [](vm::DecodedMethod &dm) { dm.edgeBase[1] += 1; }, ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(hasError(diagnostics, "template edgeBase"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, TemplateStreamRejectsStaleLayout)
{
    // The static face of the stale-template bug class: a template
    // whose baked layout no longer matches the version's.
    bool ok = true;
    const DiagnosticList diagnostics = checkTemplatesOf(
        test::figure1Program(),
        [](vm::DecodedMethod &dm) {
            dm.stream[dm.pcToTemplate[0]].layout = 1;
        },
        ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(hasError(diagnostics, "stale translation"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, TemplateStreamRejectsRetargetedBranch)
{
    bool ok = true;
    const DiagnosticList diagnostics = checkTemplatesOf(
        test::figure1Program(),
        [](vm::DecodedMethod &dm) {
            for (vm::Template &t : dm.stream) {
                if (bytecode::isCondBranch(
                        static_cast<bytecode::Opcode>(t.op))) {
                    t.taken += 1;
                    return;
                }
            }
            FAIL() << "fixture has no conditional branch";
        },
        ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(hasError(diagnostics, "does not resolve"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, TemplateStreamRejectsTamperedSegmentCharge)
{
    bool ok = true;
    const DiagnosticList diagnostics = checkTemplatesOf(
        test::figure1Program(),
        [](vm::DecodedMethod &dm) { dm.stream[0].cost += 5; }, ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(hasError(diagnostics, "segment charges"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, ReportsMultipleViolationsAtOnce)
{
    // Diagnostics, not fail-fast: seed two independent bugs and expect
    // both families of findings in one run.
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    const cfg::BlockId v = branchingDagNode(b);
    ASSERT_NE(v, cfg::kInvalidBlock);
    b.numbering.val[v][1] = b.numbering.val[v][0];
    b.plan = profile::buildInstrumentationPlan(b.cfg, b.pdag,
                                               b.numbering);

    DiagnosticList diagnostics;
    EXPECT_FALSE(checkInstrumentationPlan(inputFor(b), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "duplicate path ids"));
    // The semantic replay independently notices the id collision.
    EXPECT_GE(diagnostics.errorCount(), 2u) << renderAll(diagnostics);
}

TEST(PlanCheck, KPathSchemeAuditAcceptsRealSchemes)
{
    // Check 10 accepts the scheme the engine actually layers over a
    // pipeline-built plan, for the degenerate and windowed ks alike.
    const Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                          NumberingScheme::BallLarus,
                          PlacementKind::Direct);
    for (const std::uint32_t k : {1u, 2u, 4u}) {
        const profile::KPathScheme kpath(b.plan.totalPaths, k);
        KPathCheckInput input;
        input.plan = &b.plan;
        input.kpath = &kpath;
        input.kRequested = k;
        input.methodName = "main";
        DiagnosticList diagnostics;
        EXPECT_TRUE(checkKPathScheme(input, diagnostics))
            << "k=" << k << "\n"
            << renderAll(diagnostics);
    }
}

TEST(PlanCheck, KPathSchemeAuditRejectsMismatchedBase)
{
    // A scheme built over another plan's path count would decode every
    // composite id into the wrong digits.
    const Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                          NumberingScheme::BallLarus,
                          PlacementKind::Direct);
    const profile::KPathScheme kpath(b.plan.totalPaths + 1, 2);
    KPathCheckInput input;
    input.plan = &b.plan;
    input.kpath = &kpath;
    input.kRequested = 2;
    input.methodName = "main";
    DiagnosticList diagnostics;
    EXPECT_FALSE(checkKPathScheme(input, diagnostics));
    EXPECT_TRUE(
        hasError(diagnostics, "disagrees with the plan's totalPaths"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, KPathSchemeAuditRejectsWrongRequestedK)
{
    // A scheme quietly built for a smaller k would profile shorter
    // windows than configured while passing every arithmetic check.
    const Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                          NumberingScheme::BallLarus,
                          PlacementKind::Direct);
    const profile::KPathScheme kpath(b.plan.totalPaths, 2);
    KPathCheckInput input;
    input.plan = &b.plan;
    input.kpath = &kpath;
    input.kRequested = 4;
    input.methodName = "main";
    DiagnosticList diagnostics;
    EXPECT_FALSE(checkKPathScheme(input, diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "but the profiler requested"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, KPathSchemeAuditRequiresBaseZeroForDisabledPlans)
{
    Built b = build(test::figure1Program(), DagMode::HeaderSplit,
                    NumberingScheme::BallLarus, PlacementKind::Direct);
    b.plan.enabled = false;

    const profile::KPathScheme degenerate(0, 3);
    KPathCheckInput input;
    input.plan = &b.plan;
    input.kpath = &degenerate;
    input.kRequested = 3;
    input.methodName = "main";
    DiagnosticList clean;
    EXPECT_TRUE(checkKPathScheme(input, clean)) << renderAll(clean);

    const profile::KPathScheme stale(b.plan.totalPaths, 3);
    input.kpath = &stale;
    DiagnosticList diagnostics;
    EXPECT_FALSE(checkKPathScheme(input, diagnostics));
    EXPECT_TRUE(
        hasError(diagnostics, "disagrees with the plan's totalPaths"))
        << renderAll(diagnostics);
}

/** Replay machine with every method pinned at Opt2 (no inlining). */
struct OptMachine
{
    explicit OptMachine(const bytecode::Program &program)
        : machine(program, fastParams())
    {
        advice.finalLevel.assign(machine.numMethods(),
                                 vm::OptLevel::Opt2);
        advice.oneTimeEdges = machine.truthEdges();
        machine.enableReplay(&advice);
    }

    static vm::SimParams
    fastParams()
    {
        vm::SimParams params;
        params.tickCycles = 100'000;
        return params;
    }

    vm::ReplayAdvice advice;
    vm::Machine machine;
};

TEST(PlanCheck, CrossValidatesAgainstInterpreterPathIds)
{
    // Run the real pipeline: optimized code instrumented by the
    // ground-truth recorder. Every version's plan must pass the static
    // checker, and every dynamically observed path id must fall inside
    // the statically proven dense id space [0, totalPaths).
    for (const bytecode::Program &program :
         {test::simpleLoopProgram(), test::figure1Program(),
          test::callSwitchProgram()}) {
        OptMachine om(program);
        core::FullPathProfiler truth(om.machine,
                                     DagMode::HeaderSplit,
                                     /*charge_costs=*/false);
        om.machine.addHooks(&truth);
        om.machine.addCompileObserver(&truth);
        om.machine.runIteration();

        ASSERT_FALSE(truth.versionProfiles().empty());
        for (const auto &[key, vp] : truth.versionProfiles()) {
            const core::MethodProfilingState &state = *vp->state;
            const bytecode::MethodCfg &cfg =
                om.machine.info(key.first).cfg;
            const profile::DagEdgeFreqs freqs =
                uniformFreqs(state.pdag.dag);

            PlanCheckInput input;
            input.cfg = &cfg;
            input.pdag = &state.pdag;
            input.numbering = &state.numbering;
            input.plan = &state.plan;
            input.placement = PlacementKind::Direct;
            input.scheme = NumberingScheme::BallLarus;
            input.freqs = &freqs;
            input.methodName =
                program.methods[key.first].name;

            DiagnosticList diagnostics;
            ASSERT_TRUE(
                checkInstrumentationPlan(input, diagnostics))
                << renderAll(diagnostics);

            // The interpreter only ever produced ids the checker
            // proved unique and dense.
            EXPECT_GT(vp->paths.numDistinctPaths(), 0u);
            for (const auto &[id, record] : vp->paths.paths()) {
                EXPECT_LT(id, state.numbering.totalPaths);
                (void)record;
            }
        }
    }
}

} // namespace
} // namespace pep::analysis
