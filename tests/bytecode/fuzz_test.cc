/**
 * @file
 * Robustness fuzzing. The verifier is the VM's trust boundary: for
 * arbitrary (mutated) code it must return a clean verdict without
 * crashing, and anything it accepts must execute without tripping an
 * internal invariant (fatal runtime errors like out-of-bounds globals
 * are fine; panics are bugs). The assembler likewise must reject
 * arbitrary token soup gracefully.
 */

#include <gtest/gtest.h>

#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/verifier.hh"
#include "support/panic.hh"
#include "support/rng.hh"
#include "testing/generator.hh"
#include "vm/machine.hh"

namespace pep::bytecode {
namespace {

namespace fz = pep::testing;

/** A fuzz-generator program for the given round's seed. */
Program
roundProgram(std::uint64_t seed)
{
    fz::FuzzSpec spec;
    spec.seed = seed;
    return fz::generateProgram(spec);
}

/** Randomly mutate one instruction field of a program. */
void
mutate(support::Rng &rng, Program &program)
{
    Method &method =
        program.methods[rng.nextBounded(program.methods.size())];
    if (method.code.empty())
        return;
    Instr &instr = method.code[rng.nextBounded(method.code.size())];
    switch (rng.nextBounded(4)) {
      case 0:
        instr.op = static_cast<Opcode>(rng.nextBounded(kNumOpcodes));
        break;
      case 1:
        instr.a = static_cast<std::int32_t>(rng.nextRange(-3, 80));
        break;
      case 2:
        instr.b = static_cast<std::int32_t>(rng.nextRange(-3, 80));
        break;
      default:
        if (!instr.table.empty()) {
            instr.table[rng.nextBounded(instr.table.size())] =
                static_cast<std::int32_t>(rng.nextRange(-3, 80));
        }
        break;
    }
}

TEST(VerifierFuzz, NeverCrashesAndAcceptedProgramsRun)
{
    support::Rng rng(0xf522);
    std::size_t accepted = 0;
    std::size_t rejected = 0;

    for (std::size_t round = 0; round < 400; ++round) {
        Program program = roundProgram(1000 + round);
        const std::size_t mutations = 1 + rng.nextBounded(4);
        for (std::size_t i = 0; i < mutations; ++i)
            mutate(rng, program);

        VerifyResult verdict;
        // The verifier must return, not throw.
        ASSERT_NO_THROW(verdict = verifyProgram(program))
            << "round " << round;

        if (!verdict.ok) {
            ++rejected;
            EXPECT_FALSE(verdict.error.empty());
            continue;
        }
        ++accepted;

        // Accepted programs must build CFGs and run to completion (or
        // hit a *fatal* runtime condition) without internal panics.
        vm::SimParams params;
        params.tickCycles = 50'000;
        params.maxCyclesPerIteration = 3'000'000;
        try {
            vm::Machine machine(program, params);
            machine.runIteration();
        } catch (const support::FatalError &) {
            // Defined runtime error (bounds, depth, budget): fine.
        } catch (const support::PanicError &e) {
            FAIL() << "round " << round
                   << ": verified program panicked: " << e.what();
        }
    }
    // The mutator must exercise both sides of the boundary.
    EXPECT_GT(accepted, 20u);
    EXPECT_GT(rejected, 20u);
}

TEST(AssemblerFuzz, TokenSoupNeverCrashes)
{
    static const char *vocabulary[] = {
        ".method", ".end",   ".main",  ".globals", ".data", "main",
        "0",       "1",      "-1",     "99",       "label:", "label",
        "iconst",  "iload",  "goto",   "ifeq",     "invoke", "return",
        "ireturn", "iadd",   "gstore", "tableswitch", "returns", ":",
    };
    support::Rng rng(0xa55);
    for (int round = 0; round < 500; ++round) {
        std::string source;
        const std::size_t tokens = rng.nextBounded(60);
        for (std::size_t i = 0; i < tokens; ++i) {
            source += vocabulary[rng.nextBounded(
                std::size(vocabulary))];
            source += rng.nextBool(0.25) ? "\n" : " ";
        }
        AssembleResult result;
        ASSERT_NO_THROW(result = assemble(source))
            << "round " << round << "\n"
            << source;
        if (!result.ok) {
            EXPECT_FALSE(result.error.empty());
        }
    }
}

TEST(CfgBuilderFuzz, VerifiedMutantsAlwaysBuildSaneCfgs)
{
    support::Rng rng(0xcf9);
    std::size_t built = 0;
    for (std::size_t round = 0; round < 300; ++round) {
        Program program = roundProgram(2000 + round);
        mutate(rng, program);
        if (!verifyProgram(program).ok)
            continue;
        for (const Method &method : program.methods) {
            const MethodCfg cfg = buildCfg(method);
            EXPECT_TRUE(cfg.graph.validate().empty());
            // Every pc belongs to exactly its block's range.
            for (Pc pc = 0; pc < method.code.size(); ++pc) {
                const cfg::BlockId b = cfg.blockOfPc[pc];
                ASSERT_NE(b, cfg::kInvalidBlock);
                EXPECT_GE(pc, cfg.firstPc[b]);
                EXPECT_LE(pc, cfg.lastPc[b]);
            }
            ++built;
        }
    }
    EXPECT_GT(built, 30u);
}

} // namespace
} // namespace pep::bytecode
