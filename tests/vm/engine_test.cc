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
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/interpreter.hh"
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

/** Translate one method exactly as Machine::decodedFor would for a
 *  full-opt version with no layout information. */
struct Translated
{
    MethodInfo info;
    CompiledMethod cm;
    DecodedMethod decoded;

    explicit Translated(const bytecode::Method &method)
        : info(buildMethodInfo(method))
    {
        const CostModel cost;
        cm.level = OptLevel::Opt2;
        cm.scaledCost.resize(bytecode::kNumOpcodes);
        for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
            cm.scaledCost[op] =
                cost.instrCost(static_cast<bytecode::Opcode>(op));
        cm.branchLayout.assign(info.cfg.graph.numBlocks(), -1);
        decoded = translateMethod(method, info, cm);
    }
};

/** Structural invariants every translation must satisfy. */
void
expectWellFormed(const bytecode::Method &method,
                 const Translated &t)
{
    const cfg::Graph &graph = t.info.cfg.graph;

    // edgeBase is the prefix sum of per-block successor counts.
    ASSERT_EQ(t.decoded.edgeBase.size(), graph.numBlocks() + 1);
    EXPECT_EQ(t.decoded.edgeBase[0], 0u);
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b)
        EXPECT_EQ(t.decoded.edgeBase[b + 1],
                  t.decoded.edgeBase[b] + graph.succs(b).size())
            << "block " << b;

    // Every pc maps to a template that pre-decodes that instruction.
    ASSERT_EQ(t.decoded.pcToTemplate.size(), method.code.size());
    for (bytecode::Pc pc = 0; pc < method.code.size(); ++pc) {
        const std::uint32_t idx = t.decoded.pcToTemplate[pc];
        ASSERT_LT(idx, t.decoded.stream.size()) << "pc " << pc;
        const Template &tpl = t.decoded.stream[idx];
        EXPECT_EQ(tpl.pc, pc);
        EXPECT_EQ(tpl.op, static_cast<std::uint8_t>(method.code[pc].op));
        EXPECT_EQ(tpl.flatBase, t.decoded.edgeBase[tpl.block]);
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
        EXPECT_EQ(tpl.flatBase, t.decoded.edgeBase[tpl.block]);
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

/** Everything a run may observe, minus the engine-private translation
 *  counters (methodsDecoded / templateInvalidations). */
std::string
observableState(const Machine &machine)
{
    std::ostringstream out;
    const auto dump_set = [&](const profile::EdgeProfileSet &set,
                              const char *tag) {
        for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
            const auto &counts = set.perMethod[m].counts();
            for (std::size_t b = 0; b < counts.size(); ++b)
                for (std::size_t i = 0; i < counts[b].size(); ++i)
                    if (counts[b][i] != 0)
                        out << tag << ' ' << m << ' ' << b << ' ' << i
                            << ' ' << counts[b][i] << '\n';
        }
    };
    dump_set(machine.truthEdges(), "truth");
    dump_set(machine.oneTimeEdges(), "one-time");
    const MachineStats &s = machine.stats();
    out << "clock " << machine.now() << '\n'
        << "stats " << s.instructionsExecuted << ' '
        << s.methodInvocations << ' ' << s.yieldpointsExecuted << ' '
        << s.timerTicks << ' ' << s.compileCycles << ' ' << s.compiles
        << ' ' << s.osrs << ' ' << s.layoutMisses << ' '
        << s.branchesExecuted << '\n';
    return out.str();
}

std::string
runAdaptive(const bytecode::Program &p, EngineKind kind, int iterations)
{
    Machine machine(p, engineParams(kind));
    for (int i = 0; i < iterations; ++i)
        machine.runIteration();
    return observableState(machine);
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
    EXPECT_EQ(observableState(sw), observableState(th));
}

// ---- park / resume ---------------------------------------------------

/** Requests a context switch at every yieldpoint, so frames park at
 *  every opportunity the contract allows — including with the caller
 *  sitting mid-block at an Invoke while its callee's entry yieldpoint
 *  fires. */
struct SwitchEveryYieldpoint : ThreadScheduler
{
    std::uint64_t yieldpoints = 0;

    bool
    onYieldpoint(std::uint32_t, YieldpointKind, bool) override
    {
        ++yieldpoints;
        return true;
    }
};

struct ParkedRun
{
    std::string state;
    std::uint64_t parks = 0;
};

ParkedRun
runWithConstantParking(const bytecode::Program &p, EngineKind kind)
{
    Machine machine(p, engineParams(kind));
    SwitchEveryYieldpoint scheduler;
    machine.setScheduler(&scheduler);
    Interpreter interp(machine, 0);
    interp.start(p.mainMethod);
    ParkedRun run;
    while (!interp.resume())
        ++run.parks;
    machine.setScheduler(nullptr);
    run.state = observableState(machine);
    return run;
}

TEST(EngineParkResumeTest, MidBlockParksRoundTripIdentically)
{
    const bytecode::Program fixtures[] = {
        test::callSwitchProgram(),
        test::simpleLoopProgram(),
        test::randomStructuredProgram(601, 6),
        test::randomStructuredProgram(602, 6),
    };
    for (const bytecode::Program &p : fixtures) {
        const ParkedRun sw = runWithConstantParking(p, EngineKind::Switch);
        const ParkedRun th =
            runWithConstantParking(p, EngineKind::Threaded);
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
    EXPECT_EQ(sw.stats().templateInvalidations, 0u);

    SimParams th_params;
    th_params.engine = EngineKind::Threaded;
    th_params.fuse = {};
    Machine th(p, th_params);
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 1u); // main's baseline version

    // Re-running with a live stream translates nothing new...
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 1u);

    // ...while a new fusion selection forces exactly one
    // re-translation.
    th.setFuseOptions({true, false});
    th.runIteration();
    EXPECT_EQ(th.stats().templateInvalidations, 1u);
    EXPECT_EQ(th.stats().methodsDecoded, 2u);
}

} // namespace
} // namespace pep::vm
