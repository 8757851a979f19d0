/**
 * @file
 * Tests of template fusion and trace straightening (docs/ENGINE.md):
 * deterministic superinstruction selection from the fusion menu,
 * operand burn-in and charge conservation of fused streams, golden
 * trace selection, the switch/threaded byte-identity contract across
 * the whole PEP_ENGINE x PEP_FUSE matrix (guarded exits included, on
 * mispredict-heavy runs), park/resume through fused streams, the
 * fusion-keyed translation cache, and seeded rejections of the fused
 * half of the template-stream proof (what plan-checker check 12
 * proved before it joined analysis/verify/stream_proof.hh). The
 * binary carries the `runtime` label, so the TSan sweep (`ctest -L
 * runtime`) runs it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/diagnostics.hh"
#include "analysis/verify/stream_proof.hh"
#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "testing/observables.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/machine.hh"

namespace pep::vm {
namespace {

SimParams
fusedParams(EngineKind kind, FuseOptions fuse)
{
    SimParams params;
    params.engine = kind;
    params.fuse = fuse;
    params.tickCycles = 20'000; // fast ticks: exercise promotion
    return params;
}

using test::Translated;

/** Run the stream proof over a (possibly corrupted) stream translated
 *  from `t`; return the number of errors it reports. */
std::size_t
check12Errors(const Translated &t, const DecodedMethod &decoded)
{
    analysis::TemplateCheckInput input;
    input.code = decoded.code;
    input.info = &t.info;
    input.cm = &t.cm;
    input.decoded = &decoded;
    input.methodName = "main";
    analysis::DiagnosticList diagnostics;
    analysis::checkTemplateStream(input, diagnostics);
    return diagnostics.errorCount();
}

constexpr FuseOptions kFuseMatrix[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

// ---- the fusion menu -------------------------------------------------

TEST(FusionRuntimeMenu, OptionNamesRoundTrip)
{
    EXPECT_STREQ(fuseOptionsName({false, false}), "none");
    EXPECT_STREQ(fuseOptionsName({true, false}), "pairs");
    EXPECT_STREQ(fuseOptionsName({false, true}), "traces");
    EXPECT_STREQ(fuseOptionsName({true, true}), "pairs,traces");

    FuseOptions fuse;
    EXPECT_TRUE(parseFuseOptions("pairs,traces", fuse));
    EXPECT_TRUE(fuse.pairs);
    EXPECT_TRUE(fuse.traces);
    EXPECT_TRUE(parseFuseOptions("none", fuse));
    EXPECT_EQ(fuse, FuseOptions{});
    EXPECT_FALSE(parseFuseOptions("superblocks", fuse));
}

TEST(FusionRuntimeMenu, PairAndTripleSelectionIsDeterministic)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 3
    iconst 7
    istore 0
    iload 0
    iload 1
    iadd
    istore 2
    iload 2
    iconst 3
    if_icmpge done
    iinc 1 1
done:
    return
.end
.main main
)");
    const bytecode::Method &code = p.methods[p.mainMethod];

    // iconst+istore collapses to the ConstStore pair.
    const FusionMatch const_store = matchFusion(code, 0);
    EXPECT_EQ(const_store.top, kTopConstStore);
    EXPECT_EQ(const_store.len, 2u);

    // iload+iload+iadd: the triple wins over the LoadLoad pair.
    const FusionMatch lla = matchFusion(code, 2);
    EXPECT_EQ(lla.top, kTopLoadLoadArithBase);
    EXPECT_EQ(lla.len, 3u);
    EXPECT_EQ(static_cast<bytecode::Opcode>(lla.sub),
              bytecode::Opcode::Iadd);

    // iload+iconst+if_icmpge: the compare-and-branch triple.
    const int cmp_off =
        static_cast<int>(bytecode::Opcode::IfIcmpge) -
        static_cast<int>(bytecode::Opcode::IfIcmpeq);
    const FusionMatch lccb = matchFusion(code, 6);
    EXPECT_EQ(lccb.top, kTopLoadConstCmpBrBase + cmp_off);
    EXPECT_EQ(lccb.len, 3u);

    // iinc participates in no fusion.
    EXPECT_EQ(matchFusion(code, 9).len, 0u);

    // The menu is a pure function of the code bytes.
    for (bytecode::Pc pc = 0; pc < code.code.size(); ++pc) {
        const FusionMatch a = matchFusion(code, pc);
        const FusionMatch b = matchFusion(code, pc);
        EXPECT_EQ(a.top, b.top);
        EXPECT_EQ(a.len, b.len);
        EXPECT_EQ(a.sub, b.sub);
    }
}

// ---- translated streams ----------------------------------------------

TEST(FusionRuntimeTranslator, FusedStreamBurnsOperandsAndConserves)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 3
    iconst 7
    istore 0
    iload 0
    iload 1
    iadd
    istore 2
    iload 2
    iconst 3
    if_icmpge done
    iinc 1 1
done:
    return
.end
.main main
)");
    const bytecode::Method &code = p.methods[p.mainMethod];
    const Translated t(code, {true, false});

    // The ConstStore pair carries both constituents' operands and
    // covers both pcs in the pc map.
    const std::uint32_t cs = t.decoded.pcToTemplate[0];
    ASSERT_LT(cs, t.decoded.stream.size());
    const Template &const_store = t.decoded.stream[cs];
    EXPECT_EQ(const_store.op, kTopConstStore);
    EXPECT_EQ(const_store.fuseLen, 2u);
    EXPECT_EQ(const_store.a, 7);
    EXPECT_EQ(const_store.b, 0);
    EXPECT_EQ(t.decoded.pcToTemplate[1], cs);

    // The load-load-arith triple likewise.
    const std::uint32_t lla = t.decoded.pcToTemplate[2];
    const Template &arith = t.decoded.stream[lla];
    EXPECT_EQ(arith.op, kTopLoadLoadArithBase);
    EXPECT_EQ(arith.fuseLen, 3u);
    EXPECT_EQ(arith.a, 0);
    EXPECT_EQ(arith.b, 1);
    EXPECT_EQ(t.decoded.pcToTemplate[3], lla);
    EXPECT_EQ(t.decoded.pcToTemplate[4], lla);

    // Every fused template is the menu's own match at its pc.
    for (const Template &tpl : t.decoded.stream) {
        if (!isFusedTop(tpl.op))
            continue;
        const FusionMatch m = matchFusion(code, tpl.pc);
        EXPECT_EQ(m.top, tpl.op) << "pc " << tpl.pc;
        EXPECT_EQ(m.len, tpl.fuseLen) << "pc " << tpl.pc;
    }

    // Folded charges still conserve the per-instruction totals.
    std::uint64_t want_cost = 0;
    for (const bytecode::Instr &instr : code.code)
        want_cost += t.cm.scaledCost[static_cast<std::size_t>(instr.op)];
    std::uint64_t got_cost = 0;
    std::uint64_t got_ninstr = 0;
    for (const Template &tpl : t.decoded.stream) {
        got_cost += tpl.cost;
        got_ninstr += tpl.ninstr;
    }
    EXPECT_EQ(got_cost, want_cost);
    EXPECT_EQ(got_ninstr, code.code.size());

    // The stream shrank: fusion actually collapsed dispatches.
    const Translated plain(code, {false, false});
    EXPECT_LT(t.decoded.stream.size(), plain.decoded.stream.size());
}

TEST(FusionRuntimeTraces, SelectionIsDeterministicAndBatched)
{
    const bytecode::Program p = test::figure1Program();
    const bytecode::Method &code = p.methods[p.mainMethod];
    const Translated t(code, {true, true});

    // Selection is reproducible from (code, layout, fuse) and the
    // decoded stream records exactly it.
    EXPECT_EQ(t.decoded.traces,
              selectTraces(code, t.info, t.cm, {true, true}));
    ASSERT_FALSE(t.decoded.traces.empty());
    for (const auto &chain : t.decoded.traces)
        EXPECT_GE(chain.size(), 2u);
    for (std::size_t i = 0; i < t.decoded.traces.size(); ++i)
        for (const cfg::BlockId b : t.decoded.traces[i])
            EXPECT_EQ(t.decoded.blockTrace[b],
                      static_cast<std::int32_t>(i));

    // Interior conditionals became guards carrying a nonzero suffix
    // refund, and the batching zeroed interior leader charges: the
    // chain total sits on one template per trace.
    bool any_guard = false;
    for (const Template &tpl : t.decoded.stream) {
        if (!isGuardTop(tpl.op))
            continue;
        any_guard = true;
        EXPECT_EQ(static_cast<bytecode::Opcode>(tpl.sub),
                  code.code[tpl.pc].op);
        EXPECT_GT(tpl.swCount, 0u) << "guard refunds no suffix";
    }
    EXPECT_TRUE(any_guard);

    // Trace selection never happens without fuse.traces.
    const Translated pairs_only(code, {true, false});
    EXPECT_TRUE(pairs_only.decoded.traces.empty());
    for (const std::int32_t bt : pairs_only.decoded.blockTrace)
        EXPECT_EQ(bt, -1);
}

// ---- engine identity across the fuse matrix --------------------------

std::string
runAdaptive(const bytecode::Program &p, EngineKind kind,
            FuseOptions fuse, int iterations)
{
    Machine machine(p, fusedParams(kind, fuse));
    for (int i = 0; i < iterations; ++i)
        machine.runIteration();
    return testing::serializeRun(machine);
}

TEST(FusionRuntimeIdentity, WholeEngineFuseMatrixIsByteIdentical)
{
    const bytecode::Program fixtures[] = {
        test::simpleLoopProgram(),
        test::figure1Program(),
        test::callSwitchProgram(),
    };
    for (const bytecode::Program &p : fixtures) {
        const std::string baseline =
            runAdaptive(p, EngineKind::Switch, {}, 3);
        for (const FuseOptions &fuse : kFuseMatrix) {
            SCOPED_TRACE(fuseOptionsName(fuse));
            EXPECT_EQ(runAdaptive(p, EngineKind::Switch, fuse, 3),
                      baseline);
            EXPECT_EQ(runAdaptive(p, EngineKind::Threaded, fuse, 3),
                      baseline);
        }
    }
    for (std::uint64_t seed = 700; seed < 706; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const bytecode::Program p =
            test::randomStructuredProgram(seed, 6);
        const std::string baseline =
            runAdaptive(p, EngineKind::Switch, {}, 2);
        for (const FuseOptions &fuse : kFuseMatrix)
            EXPECT_EQ(runAdaptive(p, EngineKind::Threaded, fuse, 2),
                      baseline)
                << fuseOptionsName(fuse);
    }
}

TEST(FusionRuntimeIdentity, MispredictedGuardExitsStayIdentical)
{
    // figure1's irnd diamond sits inside a straightened trace under
    // the no-information layout: its guard fires the mispredicted exit
    // about half the time, refunding the unexecuted suffix. The run
    // must both *take* those exits and stay byte-identical.
    const bytecode::Program p = test::figure1Program();
    Machine th(p, fusedParams(EngineKind::Threaded, {true, true}));
    Machine sw(p, fusedParams(EngineKind::Switch, {}));
    for (int i = 0; i < 3; ++i) {
        th.runIteration();
        sw.runIteration();
    }
    EXPECT_GT(th.stats().layoutMisses, 0u)
        << "no guard ever took its mispredicted exit";
    EXPECT_EQ(testing::serializeRun(th), testing::serializeRun(sw));
}

// ---- park / resume ---------------------------------------------------

TEST(FusionRuntimeParkResume, ParksRoundTripThroughFusedStreams)
{
    // Trace interiors are non-header single-predecessor blocks, so no
    // yieldpoint can fire mid-trace: park counts and every observable
    // must match the switch engine exactly, fused or not.
    const bytecode::Program fixtures[] = {
        test::simpleLoopProgram(),
        test::figure1Program(),
        test::callSwitchProgram(),
        test::randomStructuredProgram(601, 6),
    };
    for (const bytecode::Program &p : fixtures) {
        const test::ParkedRun sw =
            test::runWithConstantParking(p, EngineKind::Switch);
        for (const FuseOptions &fuse : kFuseMatrix) {
            SCOPED_TRACE(fuseOptionsName(fuse));
            const test::ParkedRun th =
                test::runWithConstantParking(p, EngineKind::Threaded, fuse);
            EXPECT_GT(sw.parks, 0u);
            EXPECT_EQ(sw.parks, th.parks);
            EXPECT_EQ(sw.state, th.state);
        }
    }
}

// ---- check-12 seeded rejections, through the stream proof -----------

TEST(FusionRuntimeCheck12, CleanStreamsPassAcrossTheMatrix)
{
    const bytecode::Program fixtures[] = {
        test::figure1Program(),
        test::callSwitchProgram(),
        test::randomStructuredProgram(620, 6),
    };
    for (const bytecode::Program &p : fixtures) {
        const bytecode::Method &code = p.methods[p.mainMethod];
        for (const FuseOptions &fuse : kFuseMatrix) {
            SCOPED_TRACE(fuseOptionsName(fuse));
            const Translated t(code, fuse);
            EXPECT_EQ(check12Errors(t, t.decoded), 0u);
        }
    }
}

TEST(FusionRuntimeCheck12, RejectsCorruptedOperandBurnIn)
{
    const bytecode::Program p = test::figure1Program();
    const Translated t(p.methods[p.mainMethod], {true, true});

    DecodedMethod broken = t.decoded;
    bool corrupted = false;
    for (Template &tpl : broken.stream) {
        if (isFusedTop(tpl.op)) {
            ++tpl.a; // no longer the constituent's operand
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted) << "figure1 produced no fused template";
    EXPECT_GT(check12Errors(t, broken), 0u);
}

TEST(FusionRuntimeCheck12, RejectsCorruptedGuardRefund)
{
    const bytecode::Program p = test::figure1Program();
    const Translated t(p.methods[p.mainMethod], {true, true});

    DecodedMethod broken = t.decoded;
    bool corrupted = false;
    for (Template &tpl : broken.stream) {
        if (isGuardTop(tpl.op)) {
            ++tpl.swFirst; // refunds more than the unexecuted suffix
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted) << "figure1 produced no trace guard";
    EXPECT_GT(check12Errors(t, broken), 0u);
}

TEST(FusionRuntimeCheck12, RejectsCorruptedTraceBatching)
{
    const bytecode::Program p = test::figure1Program();
    const Translated t(p.methods[p.mainMethod], {true, true});
    ASSERT_FALSE(t.decoded.traces.empty());

    // Zero the chain total on the head block's leader: the prepaid
    // charge vanishes.
    DecodedMethod broken = t.decoded;
    const cfg::BlockId head = broken.traces.front().front();
    bool corrupted = false;
    for (Template &tpl : broken.stream) {
        if (tpl.block == head && tpl.ninstr > 0) {
            tpl.cost = 0;
            tpl.ninstr = 0;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    EXPECT_GT(check12Errors(t, broken), 0u);
}

TEST(FusionRuntimeCheck12, RejectsTamperedTraceSelection)
{
    const bytecode::Program p = test::figure1Program();
    const Translated t(p.methods[p.mainMethod], {true, true});
    ASSERT_FALSE(t.decoded.traces.empty());

    // A stream claiming different chains than selectTraces derives.
    DecodedMethod dropped = t.decoded;
    dropped.traces.clear();
    for (std::int32_t &bt : dropped.blockTrace)
        bt = -1;
    EXPECT_GT(check12Errors(t, dropped), 0u);

    // Mutually inconsistent traces/blockTrace tables.
    DecodedMethod inconsistent = t.decoded;
    inconsistent.blockTrace[inconsistent.traces.front().front()] = -1;
    EXPECT_GT(check12Errors(t, inconsistent), 0u);
}

TEST(FusionRuntimeCheck12, RejectsFusedTopsOutsideTheirMode)
{
    // A fused superinstruction in a stream translated without
    // fuse.pairs (mode gating, check 12a): hand the checker a
    // pairs-fused stream relabelled as unfused.
    const bytecode::Program p = test::figure1Program();
    const Translated t(p.methods[p.mainMethod], {true, false});
    bool any_fused = false;
    for (const Template &tpl : t.decoded.stream)
        any_fused = any_fused || isFusedTop(tpl.op);
    ASSERT_TRUE(any_fused);

    DecodedMethod relabelled = t.decoded;
    relabelled.fuse = {};
    EXPECT_GT(check12Errors(t, relabelled), 0u);
}

} // namespace
} // namespace pep::vm
