/**
 * @file
 * Assembler and disassembler tests: syntax acceptance, label and
 * method resolution (including forward references), error reporting,
 * malformed-input rejection, and disassembly round-trips.
 */

#include <gtest/gtest.h>

#include <exception>
#include <filesystem>

#include "bytecode/assembler.hh"
#include "bytecode/disassembler.hh"
#include "bytecode/verifier.hh"
#include "common/fixtures.hh"

namespace pep::bytecode {
namespace {

TEST(Assembler, MinimalProgram)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
    return
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.program.methods.size(), 1u);
    EXPECT_EQ(r.program.methods[0].name, "main");
    ASSERT_EQ(r.program.methods[0].code.size(), 1u);
    EXPECT_EQ(r.program.methods[0].code[0].op, Opcode::Return);
}

TEST(Assembler, LabelsForwardAndBackward)
{
    const AssembleResult r = assemble(R"(
.method main 0 1
    goto fwd
back:
    return
fwd:
    goto back
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
    const auto &code = r.program.methods[0].code;
    EXPECT_EQ(code[0].a, 2); // fwd
    EXPECT_EQ(code[2].a, 1); // back
}

TEST(Assembler, LabelOnSameLineAsInstruction)
{
    const AssembleResult r = assemble(R"(
.method main 0 1
loop: iinc 0 1
    goto loop
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.methods[0].code[1].a, 0);
}

TEST(Assembler, CommentsIgnored)
{
    const AssembleResult r = assemble(R"(
; full line comment
.method main 0 0   ; trailing
    return         # hash comment
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
}

TEST(Assembler, InvokeForwardReference)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
    invoke callee
    return
.end
.method callee 0 0
    return
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.methods[0].code[0].a, 1);
}

TEST(Assembler, TableswitchOperands)
{
    const AssembleResult r = assemble(R"(
.method main 0 1
    iconst 1
    tableswitch 5 dflt c0 c1
c0: return
c1: return
dflt:
    return
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
    const Instr &sw = r.program.methods[0].code[1];
    EXPECT_EQ(sw.op, Opcode::Tableswitch);
    EXPECT_EQ(sw.a, 5);
    ASSERT_EQ(sw.table.size(), 2u);
    EXPECT_EQ(sw.table[0], 2);
    EXPECT_EQ(sw.table[1], 3);
    EXPECT_EQ(sw.b, 4);
}

TEST(Assembler, GlobalsAndData)
{
    const AssembleResult r = assemble(R"(
.globals 16
.data 1 2 3
.data 4
.method main 0 0
    return
.end
.main main
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.globalSize, 16u);
    ASSERT_EQ(r.program.initialGlobals.size(), 4u);
    EXPECT_EQ(r.program.initialGlobals[3], 4);
}

TEST(Assembler, ReturnsFlagParsed)
{
    const AssembleResult r = assemble(R"(
.method f 2 4 returns
    iconst 1
    ireturn
.end
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.program.methods[0].returnsValue);
    EXPECT_EQ(r.program.methods[0].numArgs, 2u);
    EXPECT_EQ(r.program.methods[0].numLocals, 4u);
}

// ---- error paths -----------------------------------------------------------

TEST(AssemblerErrors, UndefinedLabel)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
    goto nowhere
.end
)");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("nowhere"), std::string::npos);
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
    frobnicate
.end
)");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("frobnicate"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateMethod)
{
    const AssembleResult r = assemble(R"(
.method f 0 0
    return
.end
.method f 0 0
    return
.end
)");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
x:
x:
    return
.end
)");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, UnknownInvokeTarget)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
    invoke ghost
    return
.end
)");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, InstructionOutsideMethod)
{
    const AssembleResult r = assemble("    iconst 1\n");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, MissingEnd)
{
    const AssembleResult r = assemble(R"(
.method main 0 0
    return
)");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, UnknownMainMethod)
{
    const AssembleResult r = assemble(R"(
.method f 0 0
    return
.end
.main ghost
)");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, ErrorsCarryLineNumbers)
{
    const AssembleResult r = assemble(
        ".method main 0 0\n    bogus\n.end\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 2"), std::string::npos);
}

/**
 * Malformed-input property: every prefix of an example program (a file
 * cut short) and thousands of seeded single-byte corruptions of it
 * come back from assembleVerified either assembled or rejected with a
 * diagnostic — never an exception, and (under the sanitizer builds)
 * never a memory error.
 */
TEST(AssemblerErrors, MalformedExampleProgramsAreDiagnosedNotThrown)
{
    const auto files = test::readPepasmFiles(
        std::filesystem::path(PEP_SOURCE_DIR) / "examples" / "programs");
    ASSERT_FALSE(files.empty());
    std::uint64_t seed = 1;
    for (const auto &[name, text] : files) {
        std::size_t rejected = 0;
        test::forEachMalformedVariant(
            text, seed++, 2000,
            [&](const std::string &input, const std::string &how) {
                try {
                    const AssembleResult r = assembleVerified(input);
                    if (!r.ok) {
                        ++rejected;
                        EXPECT_FALSE(r.error.empty()) << name << ", " << how;
                    }
                } catch (const std::exception &e) {
                    ADD_FAILURE() << name << ", " << how
                                  << ": threw " << e.what();
                }
            });
        EXPECT_GT(rejected, 0u) << name;
    }
}

// ---- disassembler ------------------------------------------------------------

TEST(Disassembler, RoundTripsProgram)
{
    const std::string source = R"(
.globals 8
.data 7 8
.method helper 1 2 returns
    iload 0
    iconst 3
    iadd
    ireturn
.end
.method main 0 2
    iconst 4
    istore 0
loop:
    iload 0
    ifle done
    iload 0
    invoke helper
    istore 1
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)";
    AssembleResult first = assemble(source);
    ASSERT_TRUE(first.ok) << first.error;

    const std::string text = disassembleProgram(first.program);
    AssembleResult second = assemble(text);
    ASSERT_TRUE(second.ok) << second.error << "\n" << text;

    ASSERT_EQ(first.program.methods.size(),
              second.program.methods.size());
    for (std::size_t m = 0; m < first.program.methods.size(); ++m) {
        const auto &code1 = first.program.methods[m].code;
        const auto &code2 = second.program.methods[m].code;
        ASSERT_EQ(code1.size(), code2.size());
        for (std::size_t pc = 0; pc < code1.size(); ++pc) {
            EXPECT_EQ(code1[pc].op, code2[pc].op);
            EXPECT_EQ(code1[pc].a, code2[pc].a);
            EXPECT_EQ(code1[pc].b, code2[pc].b);
            EXPECT_EQ(code1[pc].table, code2[pc].table);
        }
    }
    EXPECT_EQ(first.program.globalSize, second.program.globalSize);
    EXPECT_EQ(first.program.initialGlobals,
              second.program.initialGlobals);
    EXPECT_EQ(first.program.mainMethod, second.program.mainMethod);
}

TEST(Disassembler, RendersInvokeByName)
{
    Program program;
    Method callee;
    callee.name = "callee";
    program.methods.push_back(callee);
    Instr call{Opcode::Invoke, 0, 0, {}};
    EXPECT_EQ(disassembleInstr(program, call), "invoke callee");
    Instr bad{Opcode::Invoke, 99, 0, {}};
    EXPECT_NE(disassembleInstr(program, bad).find("<bad:99>"),
              std::string::npos);
}

TEST(Mnemonics, RoundTripAllOpcodes)
{
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        Opcode parsed;
        ASSERT_TRUE(opcodeFromMnemonic(mnemonic(op), parsed))
            << "opcode " << i;
        EXPECT_EQ(parsed, op);
    }
    Opcode out;
    EXPECT_FALSE(opcodeFromMnemonic("nonsense", out));
}

} // namespace
} // namespace pep::bytecode
