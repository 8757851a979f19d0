/**
 * @file
 * Interpreter semantics tests: every opcode's stack/locals behaviour
 * (including division edge cases and shift masking), branch
 * conditions, tableswitch ranges, calls and returns, runtime traps,
 * ground-truth edge counting, and determinism.
 */

#include <gtest/gtest.h>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "support/panic.hh"
#include "vm/machine.hh"
#include "workload/suite.hh"

namespace pep::vm {
namespace {

/** Run a main body that stores results via gstore; return globals. */
std::vector<std::int32_t>
runBody(const std::string &body, std::uint32_t globals = 8)
{
    const std::string source = ".globals " + std::to_string(globals) +
                               "\n.method main 0 8\n" + body +
                               "\n    return\n.end\n.main main\n";
    Machine machine(bytecode::assembleOrDie(source), SimParams{});
    machine.runIteration();
    return machine.globals();
}

/** Compute `expr` instructions and store the result to globals[0]. */
std::int32_t
evalToGlobal(const std::string &push_expr)
{
    const auto globals =
        runBody(push_expr + "\n    iconst 0\n    gstore");
    return globals[0];
}

TEST(Interp, ConstLoadStore)
{
    EXPECT_EQ(evalToGlobal(R"(
    iconst 41
    istore 0
    iload 0
    iconst 1
    iadd)"),
              42);
}

TEST(Interp, IincAccumulates)
{
    EXPECT_EQ(evalToGlobal(R"(
    iconst 5
    istore 0
    iinc 0 -7
    iload 0)"),
              -2);
}

TEST(Interp, StackOps)
{
    // dup: 3 3 -> mul = 9
    EXPECT_EQ(evalToGlobal("    iconst 3\n    dup\n    imul"), 9);
    // swap: 10 3 swap sub -> 3 - 10 = -7
    EXPECT_EQ(evalToGlobal(
                  "    iconst 10\n    iconst 3\n    swap\n    isub"),
              -7);
    // pop discards
    EXPECT_EQ(evalToGlobal(
                  "    iconst 1\n    iconst 99\n    pop"),
              1);
}

TEST(Interp, ArithmeticBasics)
{
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 3\n    iadd"), 10);
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 3\n    isub"), 4);
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 3\n    imul"), 21);
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 3\n    idiv"), 2);
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 3\n    irem"), 1);
    EXPECT_EQ(evalToGlobal("    iconst 12\n    iconst 10\n    iand"), 8);
    EXPECT_EQ(evalToGlobal("    iconst 12\n    iconst 10\n    ior"), 14);
    EXPECT_EQ(evalToGlobal("    iconst 12\n    iconst 10\n    ixor"), 6);
    EXPECT_EQ(evalToGlobal("    iconst 1\n    iconst 4\n    ishl"), 16);
    EXPECT_EQ(evalToGlobal("    iconst -16\n    iconst 2\n    ishr"),
              -4);
    EXPECT_EQ(evalToGlobal("    iconst 5\n    ineg"), -5);
}

TEST(Interp, DivisionEdgeCases)
{
    // Division by zero is defined as 0 (no trap).
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 0\n    idiv"), 0);
    EXPECT_EQ(evalToGlobal("    iconst 7\n    iconst 0\n    irem"), 0);
    // INT_MIN / -1 does not overflow-trap.
    EXPECT_EQ(evalToGlobal(
                  "    iconst -2147483648\n    iconst -1\n    idiv"),
              INT32_MIN);
    EXPECT_EQ(evalToGlobal(
                  "    iconst -2147483648\n    iconst -1\n    irem"),
              0);
}

TEST(Interp, ShiftsMaskTo31)
{
    EXPECT_EQ(evalToGlobal("    iconst 1\n    iconst 33\n    ishl"), 2);
    EXPECT_EQ(evalToGlobal("    iconst 8\n    iconst 35\n    ishr"), 1);
}

TEST(Interp, ArithmeticWrapsModulo32)
{
    EXPECT_EQ(evalToGlobal(
                  "    iconst 2147483647\n    iconst 1\n    iadd"),
              INT32_MIN);
    EXPECT_EQ(evalToGlobal(
                  "    iconst -2147483648\n    iconst 1\n    isub"),
              INT32_MAX);
}

TEST(Interp, GlobalsLoadStore)
{
    const auto globals = runBody(R"(
    iconst 17
    iconst 3
    gstore
    iconst 3
    gload
    iconst 2
    imul
    iconst 4
    gstore)");
    EXPECT_EQ(globals[3], 17);
    EXPECT_EQ(globals[4], 34);
}

TEST(Interp, GlobalsOutOfBoundsIsFatal)
{
    EXPECT_THROW(runBody("    iconst 1\n    iconst 99\n    gstore"),
                 support::FatalError);
    EXPECT_THROW(runBody("    iconst -1\n    gload\n    pop"),
                 support::FatalError);
}

struct BranchCase
{
    const char *mnemonic;
    std::int32_t lhs;
    std::int32_t rhs; // ignored for zero-compares
    bool expectTaken;
    bool twoOperand;
};

/** Names each case by its content, so test names are the same in
 *  every build (gtest would otherwise print the raw bytes, pointer
 *  included). */
void
PrintTo(const BranchCase &c, std::ostream *os)
{
    *os << c.mnemonic << ' ' << c.lhs;
    if (c.twoOperand)
        *os << ' ' << c.rhs;
    *os << (c.expectTaken ? " taken" : " not-taken");
}

class BranchSemantics : public ::testing::TestWithParam<BranchCase>
{
};

TEST_P(BranchSemantics, TakenMatchesCondition)
{
    const BranchCase &c = GetParam();
    std::string body;
    if (c.twoOperand) {
        body = "    iconst " + std::to_string(c.lhs) + "\n    iconst " +
               std::to_string(c.rhs) + "\n    " + c.mnemonic +
               " taken\n";
    } else {
        body = "    iconst " + std::to_string(c.lhs) + "\n    " +
               c.mnemonic + " taken\n";
    }
    body += R"(
    iconst 0
    iconst 0
    gstore
    goto end
taken:
    iconst 1
    iconst 0
    gstore
end:)";
    const auto globals = runBody(body);
    EXPECT_EQ(globals[0], c.expectTaken ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, BranchSemantics,
    ::testing::Values(
        BranchCase{"ifeq", 0, 0, true, false},
        BranchCase{"ifeq", 1, 0, false, false},
        BranchCase{"ifne", 1, 0, true, false},
        BranchCase{"ifne", 0, 0, false, false},
        BranchCase{"iflt", -1, 0, true, false},
        BranchCase{"iflt", 0, 0, false, false},
        BranchCase{"ifge", 0, 0, true, false},
        BranchCase{"ifge", -1, 0, false, false},
        BranchCase{"ifgt", 1, 0, true, false},
        BranchCase{"ifgt", 0, 0, false, false},
        BranchCase{"ifle", 0, 0, true, false},
        BranchCase{"ifle", 1, 0, false, false},
        BranchCase{"if_icmpeq", 3, 3, true, true},
        BranchCase{"if_icmpeq", 3, 4, false, true},
        BranchCase{"if_icmpne", 3, 4, true, true},
        BranchCase{"if_icmpne", 3, 3, false, true},
        BranchCase{"if_icmplt", 2, 3, true, true},
        BranchCase{"if_icmplt", 3, 3, false, true},
        BranchCase{"if_icmpge", 3, 3, true, true},
        BranchCase{"if_icmpge", 2, 3, false, true},
        BranchCase{"if_icmpgt", 4, 3, true, true},
        BranchCase{"if_icmpgt", 3, 3, false, true},
        BranchCase{"if_icmple", 3, 3, true, true},
        BranchCase{"if_icmple", 4, 3, false, true}));

struct SwitchCase
{
    std::int32_t value;
    std::int32_t expected;
};

class SwitchSemantics : public ::testing::TestWithParam<SwitchCase>
{
};

TEST_P(SwitchSemantics, SelectsCaseOrDefault)
{
    const SwitchCase &c = GetParam();
    const auto globals = runBody(
        "    iconst " + std::to_string(c.value) + R"(
    tableswitch 10 dflt c0 c1 c2
c0: iconst 100
    goto store
c1: iconst 101
    goto store
c2: iconst 102
    goto store
dflt:
    iconst 999
store:
    iconst 0
    gstore)");
    EXPECT_EQ(globals[0], c.expected);
}

INSTANTIATE_TEST_SUITE_P(Ranges, SwitchSemantics,
                         ::testing::Values(SwitchCase{10, 100},
                                           SwitchCase{11, 101},
                                           SwitchCase{12, 102},
                                           SwitchCase{13, 999},
                                           SwitchCase{9, 999},
                                           SwitchCase{-5, 999},
                                           SwitchCase{1000000, 999}));

TEST(Interp, CallsPassArgumentsInOrder)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 2
.method sub2 2 2 returns
    iload 0
    iload 1
    isub
    ireturn
.end
.method main 0 1
    iconst 10
    iconst 3
    invoke sub2
    iconst 0
    gstore
    return
.end
.main main
)");
    Machine machine(p, SimParams{});
    machine.runIteration();
    EXPECT_EQ(machine.globals()[0], 7); // 10 - 3, not 3 - 10
}

TEST(Interp, RecursionComputesFactorial)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method fact 1 1 returns
    iload 0
    iconst 1
    if_icmpgt recurse
    iconst 1
    ireturn
recurse:
    iload 0
    iload 0
    iconst 1
    isub
    invoke fact
    imul
    ireturn
.end
.method main 0 1
    iconst 6
    invoke fact
    iconst 0
    gstore
    return
.end
.main main
)");
    Machine machine(p, SimParams{});
    machine.runIteration();
    EXPECT_EQ(machine.globals()[0], 720);
}

TEST(Interp, InfiniteRecursionHitsDepthLimit)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.method spin 0 0
    invoke spin
    return
.end
.method main 0 0
    invoke spin
    return
.end
.main main
)");
    SimParams params;
    params.maxCallDepth = 100;
    Machine machine(p, params);
    EXPECT_THROW(machine.runIteration(), support::FatalError);
}

TEST(Interp, GroundTruthEdgeCountsExactForFixedLoop)
{
    // Loop executes exactly 10 times; branch tests the counter.
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    iconst 10
    istore 0
loop:
    iload 0
    ifle done
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
    Machine machine(p, SimParams{});
    machine.runIteration();

    const auto &cfg = machine.info(p.mainMethod).cfg;
    const auto &truth = machine.truthEdges().perMethod[p.mainMethod];
    // Find the conditional block (the loop header).
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] != bytecode::TerminatorKind::Cond)
            continue;
        const profile::BranchCounts counts = truth.branch(b);
        EXPECT_EQ(counts.taken, 1u);      // exits once
        EXPECT_EQ(counts.notTaken, 10u);  // ten iterations
    }
    EXPECT_GT(machine.stats().yieldpointsExecuted, 10u);
}

TEST(Interp, DeterministicAcrossIdenticalMachines)
{
    const bytecode::Program p =
        test::randomStructuredProgram(77, 10);
    Machine a(p, SimParams{});
    Machine b(p, SimParams{});
    const std::uint64_t ca = a.runIteration();
    const std::uint64_t cb = b.runIteration();
    EXPECT_EQ(ca, cb);
    EXPECT_EQ(a.stats().instructionsExecuted,
              b.stats().instructionsExecuted);
    EXPECT_EQ(a.globals(), b.globals());
}

TEST(Interp, RndSeedChangesBehaviour)
{
    const bytecode::Program p = test::simpleLoopProgram();
    SimParams pa;
    pa.rngSeed = 1;
    SimParams pb;
    pb.rngSeed = 2;
    Machine a(p, pa);
    Machine b(p, pb);
    a.runIteration();
    b.runIteration();
    // The diamond is taken ~half the time, so local 1's accumulation
    // (observable through executed-instruction counts) differs.
    EXPECT_NE(a.stats().instructionsExecuted,
              b.stats().instructionsExecuted);
}

TEST(Interp, IterationCycleBudgetEnforced)
{
    workload::WorkloadSpec spec = workload::standardSuite()[0];
    SimParams params;
    params.maxCyclesPerIteration = 10'000;
    params.tickCycles = 2'000;
    Machine machine(workload::generateWorkload(spec), params);
    EXPECT_THROW(machine.runIteration(), support::FatalError);
}

} // namespace
} // namespace pep::vm
