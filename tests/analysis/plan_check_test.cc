/**
 * @file
 * Instrumentation-plan checker tests: the checker accepts everything
 * the real profiling pipeline builds (fixtures, random structured
 * programs, every mode/scheme/placement combination) and rejects
 * seeded violations of each invariant — duplicate path ids, an
 * increment on a spanning-tree edge, a nonzero hot-edge value under
 * smart numbering, tampered back-edge bookkeeping, and plans left
 * enabled after numbering overflow, and edge tables whose size does
 * not match the CFG. Plans come from profile::PlanState, the builder
 * the engines and lint use. The template-stream tests (checks 9 and
 * 12 before they joined the stream proof) run the one stream proof,
 * analysis/verify/stream_proof.hh. Ends with a cross-validation
 * against the interpreter: dynamically observed path ids must lie in
 * the statically proven id space.
 */

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <string>

#include "analysis/plan_check.hh"
#include "analysis/verify/stream_proof.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "core/baseline_profilers.hh"
#include "profile/spanning_placement.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/hooks.hh"
#include "vm/machine.hh"

namespace pep::analysis {
namespace {

using profile::DagMode;
using profile::NumberingScheme;
using profile::PlacementKind;
using profile::PlanState;

/** main()'s plan, built by profile::PlanState with no profile. */
struct MainPlan
{
    explicit MainPlan(const bytecode::Program &program,
                      DagMode mode = DagMode::HeaderSplit,
                      NumberingScheme scheme = NumberingScheme::BallLarus,
                      PlacementKind placement = PlacementKind::Direct)
        : cfg(bytecode::buildCfg(program.methods[program.mainMethod])),
          state(cfg, mode, scheme, nullptr, placement)
    {
    }

    bool
    check(DiagnosticList &diagnostics,
          const profile::MethodEdgeProfile *freq_profile = nullptr) const
    {
        return checkInstrumentationPlan(cfg, state, "main", diagnostics,
                                        freq_profile);
    }

    const bytecode::MethodCfg cfg;
    PlanState state;
};

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
                    const MainPlan p(program, mode, scheme, placement);
                    DiagnosticList diagnostics;
                    EXPECT_TRUE(p.check(diagnostics))
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
            const MainPlan p(program, mode, NumberingScheme::BallLarus,
                             PlacementKind::SpanningTree);
            DiagnosticList diagnostics;
            EXPECT_TRUE(p.check(diagnostics))
                << "seed " << seed << "\n"
                << renderAll(diagnostics);
            ++checked;
        }
    }
    EXPECT_GE(checked, 24);
}

/** Find a DAG node with at least two outgoing edges. */
cfg::BlockId
branchingDagNode(const PlanState &state)
{
    for (cfg::BlockId v = 0; v < state.pdag.dag.numBlocks(); ++v) {
        if (state.pdag.dag.succs(v).size() >= 2)
            return v;
    }
    return cfg::kInvalidBlock;
}

TEST(PlanCheck, RejectsDuplicatePathId)
{
    // Seeded bug 1: two sibling edges share a value, so two distinct
    // paths collapse onto one id. The interval check must prove the
    // overlap statically.
    MainPlan p(test::figure1Program());
    PlanState &s = p.state;
    const cfg::BlockId v = branchingDagNode(s);
    ASSERT_NE(v, cfg::kInvalidBlock);

    s.numbering.val[v][1] = s.numbering.val[v][0];
    s.plan = profile::buildInstrumentationPlan(p.cfg, s.pdag, s.numbering);

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "duplicate path ids"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsGapInPathIds)
{
    // Shifting a sibling value up opens a hole in [0, numPaths).
    MainPlan p(test::figure1Program());
    PlanState &s = p.state;
    const cfg::BlockId v = branchingDagNode(s);
    ASSERT_NE(v, cfg::kInvalidBlock);

    // Make the larger of the two sibling values larger still.
    const std::uint32_t hi =
        s.numbering.val[v][0] > s.numbering.val[v][1] ? 0 : 1;
    s.numbering.val[v][hi] += 1;
    s.plan = profile::buildInstrumentationPlan(p.cfg, s.pdag, s.numbering);

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "path-id gap") ||
                hasError(diagnostics, "node"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsIncrementOnSpanningTreeEdge)
{
    // Seeded bug 2: a spanning-tree edge carries an increment. The
    // chord-only check must catch it even though the replayed sums
    // also drift.
    MainPlan p(test::figure1Program(), DagMode::HeaderSplit,
               NumberingScheme::BallLarus, PlacementKind::SpanningTree);
    PlanState &s = p.state;

    cfg::BlockId tv = cfg::kInvalidBlock;
    std::uint32_t ti = 0;
    for (cfg::BlockId v = 0;
         v < s.pdag.dag.numBlocks() && tv == cfg::kInvalidBlock; ++v) {
        for (std::uint32_t i = 0; i < s.spanning.inTree[v].size();
             ++i) {
            if (s.spanning.inTree[v][i]) {
                tv = v;
                ti = i;
                break;
            }
        }
    }
    ASSERT_NE(tv, cfg::kInvalidBlock) << "no tree edge found";

    s.spanning.increment[tv][ti] += 3;
    s.plan = profile::buildInstrumentationPlan(p.cfg, s.pdag, s.numbering);
    profile::applySpanningPlacement(p.cfg, s.pdag, s.spanning, s.plan);

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics,
                         "increment placed on a spanning-tree edge"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsNonzeroHotEdgeIncrement)
{
    // Seeded bug 3: a smart numbering built with no profile (every edge
    // equally hot) checked against a profile that favors every branch's
    // *second* successor — the hottest edge then carries a nonzero
    // value.
    const MainPlan p(test::figure1Program(), DagMode::HeaderSplit,
                     NumberingScheme::Smart);
    profile::MethodEdgeProfile biased(p.cfg);
    for (cfg::BlockId b = 0; b < p.cfg.graph.numBlocks(); ++b) {
        if (p.cfg.graph.succs(b).size() >= 2)
            biased.addEdge({b, 1}, 10);
    }
    ASSERT_FALSE(biased.empty());

    DiagnosticList unbiased;
    EXPECT_TRUE(p.check(unbiased)) << renderAll(unbiased);
    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics, &biased));
    EXPECT_TRUE(hasError(diagnostics, "smart numbering left value"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsBackEdgeThatDoesNotEndPath)
{
    MainPlan p(test::figure1Program(), DagMode::BackEdgeTruncate);
    ASSERT_FALSE(p.cfg.backEdges.empty());
    const cfg::EdgeRef back = p.cfg.backEdges[0];
    p.state.plan.flatEdgeActions[p.cfg.flatEdgeId(back)].endsPath = false;

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics,
                         "truncated back edge does not end the path"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsTamperedBackEdgeEndAdd)
{
    MainPlan p(test::figure1Program(), DagMode::BackEdgeTruncate);
    ASSERT_FALSE(p.cfg.backEdges.empty());
    const cfg::EdgeRef back = p.cfg.backEdges[0];
    p.state.plan.flatEdgeActions[p.cfg.flatEdgeId(back)].endAdd += 1;

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "back-edge end/restart"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsWrongEdgeIncrement)
{
    // A single off-by-one increment must fail both the consistency
    // check and the semantic replay.
    MainPlan p(test::figure1Program());
    bool tampered = false;
    for (profile::EdgeAction &action : p.state.plan.flatEdgeActions) {
        if (!action.endsPath) {
            action.increment += 1;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
}

TEST(PlanCheck, RejectsEnabledPlanAfterOverflow)
{
    MainPlan p(test::figure1Program());
    p.state.numbering.overflow = true; // plan stays enabled: contradiction

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics,
                         "plan is enabled despite numbering overflow"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsTamperedFlatAction)
{
    // The engines dispatch off the edge table, so a corrupt entry
    // miscounts paths. Checks 4 and 7 read that same table, so the
    // corruption cannot hide behind a second copy.
    MainPlan p(test::figure1Program());
    ASSERT_FALSE(p.state.plan.flatEdgeActions.empty());
    p.state.plan.flatEdgeActions[0].increment += 7;

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "does not match expected"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, RejectsStaleFlattenedTable)
{
    // A table laid out for another CFG (here: a different method's
    // plan) no longer covers this CFG's edges; check 8 must refuse it
    // before checks 4 and 7 index through it.
    MainPlan p(test::figure1Program());
    const MainPlan other(test::simpleLoopProgram());
    ASSERT_NE(other.state.plan.flatEdgeActions.size(),
              p.state.plan.flatEdgeActions.size());
    p.state.plan.flatEdgeActions = other.state.plan.flatEdgeActions;

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "flattened table covers"))
        << renderAll(diagnostics);
}

/**
 * Build main()'s template stream exactly as the lint pipeline does —
 * or, `instrumented`, against PEP's plan as a threaded machine with
 * PEP inline does — optionally tamper with it, and run the stream
 * proof. Everything lives in one scope so the DecodedMethod's
 * back-pointers stay valid.
 */
DiagnosticList
checkTemplatesOf(const bytecode::Program &program,
                 const std::function<void(vm::DecodedMethod &)> &tamper,
                 bool &ok, bool instrumented = false)
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

    // PEP's plan for the version, as the inline profiler hands it to
    // translation (HeaderSplit, smart numbering).
    std::unique_ptr<core::MethodProfilingState> state;
    vm::PathPlan plan;
    if (instrumented) {
        state = core::buildProfilingState(
            info.cfg, program.mainMethod, 0, DagMode::HeaderSplit,
            NumberingScheme::Smart, nullptr);
        plan.edges = state->plan.flatEdgeActions.data();
        plan.edgeBase = info.cfg.edgeBase.data();
        plan.headers = state->plan.headerActions.data();
        plan.kpath = &state->kpath;
    }
    vm::PathPlan *version_plan = instrumented ? &plan : nullptr;

    vm::DecodedMethod decoded =
        vm::translateMethod(method, info, cm, {}, version_plan);
    if (tamper)
        tamper(decoded);

    TemplateCheckInput input;
    input.code = &method;
    input.info = &info;
    input.cm = &cm;
    input.decoded = &decoded;
    input.methodName = method.name;
    input.plan = version_plan;

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
    const MainPlan p(bytecode::assembleOrDie(text));
    ASSERT_EQ(p.state.plan.totalPaths, 8192u);
    ASSERT_GT(p.state.plan.totalPaths, kSimulateLimit);

    DiagnosticList diagnostics;
    EXPECT_TRUE(p.check(diagnostics))
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
    // Each stream alone and translated against PEP's plan.
    for (const bool instrumented : {false, true}) {
        for (const bytecode::Program &program :
             {test::simpleLoopProgram(), test::figure1Program(),
              test::callSwitchProgram(), test::wideSwitchProgram()}) {
            bool ok = false;
            const DiagnosticList diagnostics =
                checkTemplatesOf(program, nullptr, ok, instrumented);
            EXPECT_TRUE(ok) << renderAll(diagnostics);
        }
        for (std::uint64_t seed = 900; seed < 912; ++seed) {
            bool ok = false;
            const DiagnosticList diagnostics = checkTemplatesOf(
                test::randomStructuredProgram(seed, 8), nullptr, ok,
                instrumented);
            EXPECT_TRUE(ok) << "seed " << seed << "\n"
                            << renderAll(diagnostics);
        }
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

/** An engine-equiv error whose message contains `substr`. */
bool
hasStreamError(const DiagnosticList &diagnostics, const std::string &substr)
{
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.severity == Severity::Error && d.pass == "engine-equiv" &&
            d.message.find(substr) != std::string::npos)
            return true;
    }
    return false;
}

TEST(PlanCheck, TemplateStreamRejectsFlippedPathWorkBit)
{
    // A clear bit skips the inline path register, so a flipped one
    // drops an increment from (or adds a no-op to) every path through
    // its edge: PEP would sample wrong path numbers.
    bool ok = false;
    std::uint32_t set_bits = 0;
    checkTemplatesOf(
        test::figure1Program(),
        [&](vm::DecodedMethod &dm) {
            for (const vm::Template &t : dm.stream)
                set_bits += std::popcount(t.pathWork);
        },
        ok, /*instrumented=*/true);
    EXPECT_TRUE(ok);
    EXPECT_GT(set_bits, 0u);

    const DiagnosticList diagnostics = checkTemplatesOf(
        test::figure1Program(),
        [](vm::DecodedMethod &dm) {
            for (vm::Template &t : dm.stream) {
                if (bytecode::isCondBranch(
                        static_cast<bytecode::Opcode>(t.op))) {
                    t.pathWork ^= 2; // the fall successor's bit
                    return;
                }
            }
        },
        ok, /*instrumented=*/true);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(hasStreamError(diagnostics, "path-work bit"))
        << renderAll(diagnostics);
}

TEST(PlanCheck, TemplateStreamRejectsPathWorkBitWithoutPlan)
{
    // Without an inline path profiler no frame binds a plan, so every
    // bit must be clear — even where no edge reads it.
    for (const bool edge_template : {true, false}) {
        bool ok = true;
        const DiagnosticList diagnostics = checkTemplatesOf(
            test::figure1Program(),
            [&](vm::DecodedMethod &dm) {
                for (vm::Template &t : dm.stream) {
                    const auto op = static_cast<bytecode::Opcode>(t.op);
                    if (bytecode::isCondBranch(op) == edge_template) {
                        t.pathWork |= 1;
                        return;
                    }
                }
            },
            ok);
        EXPECT_FALSE(ok) << (edge_template ? "edge" : "body")
                         << " template";
        EXPECT_TRUE(hasStreamError(diagnostics, "path-work bit"))
            << renderAll(diagnostics);
    }
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
    MainPlan p(test::figure1Program());
    PlanState &s = p.state;
    const cfg::BlockId v = branchingDagNode(s);
    ASSERT_NE(v, cfg::kInvalidBlock);
    s.numbering.val[v][1] = s.numbering.val[v][0];
    s.plan = profile::buildInstrumentationPlan(p.cfg, s.pdag, s.numbering);

    DiagnosticList diagnostics;
    EXPECT_FALSE(p.check(diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "duplicate path ids"));
    // The semantic replay independently notices the id collision.
    EXPECT_GE(diagnostics.errorCount(), 2u) << renderAll(diagnostics);
}

TEST(PlanCheck, KPathSchemeAuditAcceptsRealSchemes)
{
    // Check 10 accepts the scheme the engine actually layers over a
    // pipeline-built plan, for the degenerate and windowed ks alike.
    const MainPlan p(test::figure1Program());
    for (const std::uint32_t k : {1u, 2u, 4u}) {
        const profile::KPathScheme kpath(p.state.plan.totalPaths, k);
        KPathCheckInput input;
        input.plan = &p.state.plan;
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
    const MainPlan p(test::figure1Program());
    const profile::KPathScheme kpath(p.state.plan.totalPaths + 1, 2);
    KPathCheckInput input;
    input.plan = &p.state.plan;
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
    const MainPlan p(test::figure1Program());
    const profile::KPathScheme kpath(p.state.plan.totalPaths, 2);
    KPathCheckInput input;
    input.plan = &p.state.plan;
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
    MainPlan p(test::figure1Program());
    p.state.plan.enabled = false;

    const profile::KPathScheme degenerate(0, 3);
    KPathCheckInput input;
    input.plan = &p.state.plan;
    input.kpath = &degenerate;
    input.kRequested = 3;
    input.methodName = "main";
    DiagnosticList clean;
    EXPECT_TRUE(checkKPathScheme(input, clean)) << renderAll(clean);

    const profile::KPathScheme stale(p.state.plan.totalPaths, 3);
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
            DiagnosticList diagnostics;
            ASSERT_TRUE(checkInstrumentationPlan(
                om.machine.info(key.first).cfg, state,
                program.methods[key.first].name, diagnostics))
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
