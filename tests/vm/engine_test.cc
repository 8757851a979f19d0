/**
 * @file
 * Tests of the pre-decoded threaded execution engine (docs/ENGINE.md):
 * translator edge cases over hand-written and random CFG shapes, the
 * switch/threaded observable byte-identity contract, park/resume
 * round-trips through mid-block scheduler switches, and the
 * translation-cache counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "testing/observables.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/machine.hh"

namespace pep::vm {
namespace {

SimParams
engineParams(EngineKind kind)
{
    SimParams params;
    params.engine = kind;
    params.tickCycles = 20'000; // fast ticks: exercise promotion
    return params;
}

using test::Translated;

/** Structural invariants every translation must satisfy. */
void
expectWellFormed(const bytecode::Method &method,
                 const Translated &t)
{
    // Every pc maps to a template that pre-decodes that instruction.
    ASSERT_EQ(t.decoded.pcToTemplate.size(), method.code.size());
    for (bytecode::Pc pc = 0; pc < method.code.size(); ++pc) {
        const std::uint32_t idx = t.decoded.pcToTemplate[pc];
        ASSERT_LT(idx, t.decoded.stream.size()) << "pc " << pc;
        const Template &tpl = t.decoded.stream[idx];
        EXPECT_EQ(tpl.pc, pc);
        EXPECT_EQ(tpl.op, static_cast<std::uint8_t>(method.code[pc].op));
        EXPECT_EQ(tpl.flatBase, t.info.cfg.edgeBase[tpl.block]);
    }

    // Segment charges conserve the per-instruction totals.
    std::uint64_t want_cost = 0;
    for (const bytecode::Instr &instr : method.code)
        want_cost +=
            t.cm.scaledCost[static_cast<std::size_t>(instr.op)];
    std::uint64_t got_cost = 0;
    std::uint64_t got_ninstr = 0;
    for (const Template &tpl : t.decoded.stream) {
        got_cost += tpl.cost;
        got_ninstr += tpl.ninstr;
    }
    EXPECT_EQ(got_cost, want_cost);
    EXPECT_EQ(got_ninstr, method.code.size());
}

TEST(EngineKindTest, NamesRoundTrip)
{
    EXPECT_STREQ(engineKindName(EngineKind::Switch), "switch");
    EXPECT_STREQ(engineKindName(EngineKind::Threaded), "threaded");
    EngineKind kind = EngineKind::Switch;
    EXPECT_TRUE(parseEngineKind("threaded", kind));
    EXPECT_EQ(kind, EngineKind::Threaded);
    EXPECT_TRUE(parseEngineKind("switch", kind));
    EXPECT_EQ(kind, EngineKind::Switch);
    EXPECT_FALSE(parseEngineKind("goto", kind));
}

TEST(TranslatorTest, SingleBlockMethod)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    iconst 3
    istore 0
    iinc 0 2
    return
.end
.main main
)");
    const bytecode::Method &method = p.methods[p.mainMethod];
    const Translated t(method);
    expectWellFormed(method, t);

    // One block, no injected boundary ops: the stream is the code, the
    // pc map is the identity, and the whole body is one segment whose
    // charge sits on the leader.
    EXPECT_EQ(t.decoded.stream.size(), method.code.size());
    for (bytecode::Pc pc = 0; pc < method.code.size(); ++pc)
        EXPECT_EQ(t.decoded.pcToTemplate[pc], pc);
    EXPECT_EQ(t.decoded.stream[0].ninstr, method.code.size());
    for (std::size_t i = 1; i < t.decoded.stream.size(); ++i) {
        EXPECT_EQ(t.decoded.stream[i].cost, 0u);
        EXPECT_EQ(t.decoded.stream[i].ninstr, 0u);
    }
}

TEST(TranslatorTest, SelfLoopBranchTargetsItsOwnHeader)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    iconst 50
    istore 0
loop:
    iinc 0 -1
    iload 0
    ifgt loop
    return
.end
.main main
)");
    const bytecode::Method &method = p.methods[p.mainMethod];
    const Translated t(method);
    expectWellFormed(method, t);

    const Template *branch = nullptr;
    for (const Template &tpl : t.decoded.stream) {
        if (tpl.op == static_cast<std::uint8_t>(bytecode::Opcode::Ifgt))
            branch = &tpl;
    }
    ASSERT_NE(branch, nullptr);
    // The back edge loops to the branch's own block: the pre-resolved
    // taken target is the block's leader template, marked as a header.
    EXPECT_EQ(branch->takenBlock, branch->block);
    EXPECT_TRUE(branch->flags & kTplTakenHeader);
    EXPECT_EQ(branch->taken, t.decoded.pcToTemplate[branch->takenPc]);
    EXPECT_EQ(t.decoded.stream[branch->taken].block, branch->block);
    EXPECT_TRUE(t.info.cfg.isLoopHeader[branch->block]);
}

TEST(TranslatorTest, FallthroughBlockEndsGetInjectedEdgeOps)
{
    // simpleLoopProgram's `skip:` label splits a block mid-fallthrough,
    // so the preceding block ends without a terminator and translation
    // must inject a synthetic fall-edge template there.
    const bytecode::Program p = test::simpleLoopProgram();
    const bytecode::Method &method = p.methods[p.mainMethod];
    const Translated t(method);
    expectWellFormed(method, t);

    std::size_t fall_edges = 0;
    for (const Template &tpl : t.decoded.stream) {
        if (tpl.op != kTopFallEdge)
            continue;
        ++fall_edges;
        // The injected op resolves to the next block's leader and
        // shifts the pc map off the identity behind it.
        EXPECT_EQ(tpl.fall, t.decoded.pcToTemplate[tpl.fallPc]);
        EXPECT_EQ(t.decoded.stream[tpl.fall].pc, tpl.fallPc);
        EXPECT_NE(tpl.fallBlock, tpl.block);
        EXPECT_EQ(tpl.flatBase, t.info.cfg.edgeBase[tpl.block]);
    }
    EXPECT_GT(fall_edges, 0u);
    EXPECT_EQ(t.decoded.stream.size(),
              method.code.size() + fall_edges);
}

TEST(TranslatorTest, RandomStructuredMethodsStayWellFormed)
{
    for (std::uint64_t seed = 400; seed < 412; ++seed) {
        const bytecode::Program p =
            test::randomStructuredProgram(seed, 6);
        const bytecode::Method &method = p.methods[p.mainMethod];
        const Translated t(method);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectWellFormed(method, t);
    }
}

// ---- engine equivalence ----------------------------------------------

std::string
runAdaptive(const bytecode::Program &p, EngineKind kind, int iterations)
{
    Machine machine(p, engineParams(kind));
    for (int i = 0; i < iterations; ++i)
        machine.runIteration();
    return testing::serializeRun(machine);
}

TEST(EngineIdentityTest, AdaptiveRunsAreObservablyIdentical)
{
    const bytecode::Program fixtures[] = {
        test::simpleLoopProgram(),
        test::figure1Program(),
        test::callSwitchProgram(),
    };
    for (const bytecode::Program &p : fixtures)
        EXPECT_EQ(runAdaptive(p, EngineKind::Switch, 3),
                  runAdaptive(p, EngineKind::Threaded, 3));
    for (std::uint64_t seed = 500; seed < 508; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const bytecode::Program p =
            test::randomStructuredProgram(seed, 6);
        EXPECT_EQ(runAdaptive(p, EngineKind::Switch, 2),
                  runAdaptive(p, EngineKind::Threaded, 2));
    }
}

TEST(EngineIdentityTest, InliningAndBackEdgeYieldpointsStayIdentical)
{
    SimParams base = engineParams(EngineKind::Switch);
    base.enableInlining = true;
    base.yieldpointsOnBackEdges = true;
    const bytecode::Program p = test::callSwitchProgram();

    SimParams threaded = base;
    threaded.engine = EngineKind::Threaded;
    Machine sw(p, base);
    Machine th(p, threaded);
    for (int i = 0; i < 3; ++i) {
        sw.runIteration();
        th.runIteration();
    }
    EXPECT_EQ(testing::serializeRun(sw), testing::serializeRun(th));
}

// ---- park / resume ---------------------------------------------------

TEST(EngineParkResumeTest, MidBlockParksRoundTripIdentically)
{
    const bytecode::Program fixtures[] = {
        test::callSwitchProgram(),
        test::simpleLoopProgram(),
        test::randomStructuredProgram(601, 6),
        test::randomStructuredProgram(602, 6),
    };
    for (const bytecode::Program &p : fixtures) {
        const test::ParkedRun sw =
            test::runWithConstantParking(p, EngineKind::Switch);
        const test::ParkedRun th =
            test::runWithConstantParking(p, EngineKind::Threaded);
        EXPECT_GT(sw.parks, 0u);
        EXPECT_EQ(sw.parks, th.parks);
        EXPECT_EQ(sw.state, th.state);
    }
}

// ---- translation cache ---------------------------------------------

TEST(EngineCountersTest, TranslationCountersTrackTheCache)
{
    // Default tick period: this tiny program never ticks, so nothing
    // promotes and the counters are fully deterministic.
    const bytecode::Program p = test::simpleLoopProgram();

    // The switch engine never touches the translation cache.
    SimParams sw_params;
    sw_params.engine = EngineKind::Switch;
    Machine sw(p, sw_params);
    sw.runIteration();
    EXPECT_EQ(sw.stats().methodsDecoded, 0u);

    SimParams th_params;
    th_params.engine = EngineKind::Threaded;
    th_params.fuse = {};
    Machine th(p, th_params);
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 1u); // main's baseline version

    // Re-running with a live stream translates nothing new.
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 1u);
}

} // namespace
} // namespace pep::vm
