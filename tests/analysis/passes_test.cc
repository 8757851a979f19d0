/**
 * @file
 * Tests for the individual lint passes: liveness / dead stores,
 * unreachable code, the abstract stack/constant pass, and the
 * lintProgram pipeline glue.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/lint.hh"
#include "analysis/liveness.hh"
#include "analysis/stack_const.hh"
#include "analysis/unreachable.hh"
#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"

namespace pep::analysis {
namespace {

bytecode::Program
assembleMain(const std::string &body)
{
    return bytecode::assembleOrDie(body);
}

const bytecode::Method &
mainMethod(const bytecode::Program &program)
{
    return program.methods[program.mainMethod];
}

std::size_t
countMatching(const DiagnosticList &diagnostics, Severity severity,
              const std::string &pass, const std::string &substring)
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.severity == severity && d.pass == pass &&
            d.message.find(substring) != std::string::npos)
            ++n;
    }
    return n;
}

TEST(Liveness, FlagsStoreNeverRead)
{
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 2
    iconst 5
    istore 0
    iconst 1
    istore 1
    iload 1
    ifle done
done:
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const LivenessResult liveness = computeLiveness(m, cfg);

    DiagnosticList diagnostics;
    reportDeadStores(m, cfg, liveness, diagnostics);

    // Local 0 is written and never read; local 1 is read by iload.
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning, "liveness",
                            "dead store: local 0"),
              1u);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning, "liveness",
                            "dead store: local 1"),
              0u);
    // The dead istore sits at pc 1.
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.message.find("local 0") != std::string::npos) {
            ASSERT_TRUE(d.hasPc);
            EXPECT_EQ(d.pc, 1u);
        }
    }
}

TEST(Liveness, LoopCarriedLocalStaysLive)
{
    // simpleLoopProgram: local 0 is the loop counter (iload in the
    // header, iinc in the latch) — live around the back edge, so its
    // stores are not dead. Local 1 is only ever written by an iinc,
    // but an iinc in a loop reads its own previous value on the next
    // iteration, so it keeps itself live: no dead store either.
    const bytecode::Program program = test::simpleLoopProgram();
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const LivenessResult liveness = computeLiveness(m, cfg);

    bool header_seen = false;
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (!cfg.isCodeBlock(b) || !cfg.isLoopHeader[b])
            continue;
        header_seen = true;
        EXPECT_TRUE(liveness.liveIn[b][0])
            << "loop counter dead at header entry";
    }
    EXPECT_TRUE(header_seen);

    DiagnosticList diagnostics;
    reportDeadStores(m, cfg, liveness, diagnostics);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning, "liveness",
                            "local 0"),
              0u);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning, "liveness",
                            "local 1"),
              0u);
}

TEST(Unreachable, ReportsDeadRange)
{
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 1
    goto end
    iconst 1
    istore 0
    goto end
end:
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);

    DiagnosticList diagnostics;
    const std::size_t dead = reportUnreachableCode(m, cfg, diagnostics);

    EXPECT_EQ(dead, 3u); // iconst, istore, goto
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning,
                            "unreachable", "unreachable code"),
              1u);
    ASSERT_FALSE(diagnostics.empty());
    EXPECT_TRUE(diagnostics.all()[0].hasPc);
    EXPECT_EQ(diagnostics.all()[0].pc, 1u);
}

TEST(Unreachable, CleanMethodReportsNothing)
{
    const bytecode::Program program = test::figure1Program();
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);

    DiagnosticList diagnostics;
    EXPECT_EQ(reportUnreachableCode(m, cfg, diagnostics), 0u);
    EXPECT_TRUE(diagnostics.empty());
}

TEST(StackConst, FlagsDivisionByConstantZero)
{
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 1
    iconst 7
    iconst 0
    idiv
    istore 0
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const StackConstResult result = computeStackConst(program, m, cfg);

    DiagnosticList diagnostics;
    reportStackConstFindings(program, m, cfg, result, diagnostics);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning,
                            "stack-const", "constant zero"),
              1u);
}

TEST(StackConst, FlagsConstantBranch)
{
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 1
    iconst 0
    ifeq taken
    iinc 0 1
taken:
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const StackConstResult result = computeStackConst(program, m, cfg);

    DiagnosticList diagnostics;
    reportStackConstFindings(program, m, cfg, result, diagnostics);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning,
                            "stack-const", "always taken"),
              1u);
}

TEST(StackConst, JoinPreservesEqualConstants)
{
    // Both arms store 3 into local 0, so after the join the iload/ifle
    // pair is a compile-time-decided branch (3 <= 0 is never true).
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 1
    irnd
    ifeq other
    iconst 3
    istore 0
    goto join
other:
    iconst 3
    istore 0
join:
    iload 0
    ifle end
end:
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const StackConstResult result = computeStackConst(program, m, cfg);

    DiagnosticList diagnostics;
    reportStackConstFindings(program, m, cfg, result, diagnostics);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning,
                            "stack-const", "never taken"),
              1u);
}

TEST(StackConst, JoinWidensDifferingConstants)
{
    // Arms store different constants: the join must widen to top and
    // report nothing about the branch.
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 1
    irnd
    ifeq other
    iconst 3
    istore 0
    goto join
other:
    iconst 4
    istore 0
join:
    iload 0
    ifle end
end:
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const StackConstResult result = computeStackConst(program, m, cfg);

    DiagnosticList diagnostics;
    reportStackConstFindings(program, m, cfg, result, diagnostics);
    EXPECT_EQ(countMatching(diagnostics, Severity::Warning,
                            "stack-const", "taken"),
              0u);
}

TEST(StackConst, NotesConstantSwitchSelector)
{
    const bytecode::Program program = assembleMain(R"(
.globals 1
.method main 0 1
    iconst 1
    tableswitch 0 dflt c0 c1
c0: goto end
c1: goto end
dflt:
end:
    return
.end
.main main
)");
    const bytecode::Method &m = mainMethod(program);
    const bytecode::MethodCfg cfg = bytecode::buildCfg(m);
    const StackConstResult result = computeStackConst(program, m, cfg);

    DiagnosticList diagnostics;
    reportStackConstFindings(program, m, cfg, result, diagnostics);
    EXPECT_EQ(countMatching(diagnostics, Severity::Note, "stack-const",
                            "selector is constant"),
              1u);
}

TEST(Lint, VerifierErrorsStopCfgPasses)
{
    // Hand-built program that fails verification (stack underflow):
    // lintProgram must report it under pass "verify" and skip the
    // CFG-based passes (which would panic on unverified code).
    bytecode::Program program;
    program.globalSize = 0;
    bytecode::Method m;
    m.name = "bad";
    m.numLocals = 1;
    m.code = {bytecode::Instr{bytecode::Opcode::Iadd, 0, 0, {}},
              bytecode::Instr{bytecode::Opcode::Return, 0, 0, {}}};
    program.methods.push_back(std::move(m));
    program.mainMethod = 0;

    const DiagnosticList diagnostics = lintProgram(program);
    ASSERT_TRUE(diagnostics.hasErrors());
    for (const Diagnostic &d : diagnostics.all())
        EXPECT_EQ(d.pass, "verify");
}

TEST(Lint, FixturesProduceNoErrors)
{
    for (bytecode::Program program :
         {test::simpleLoopProgram(), test::figure1Program(),
          test::callSwitchProgram()}) {
        const DiagnosticList diagnostics = lintProgram(program);
        EXPECT_EQ(diagnostics.errorCount(), 0u);
        for (const Diagnostic &d : diagnostics.all()) {
            EXPECT_NE(d.severity, Severity::Error)
                << formatDiagnostic(d);
        }
    }
}

TEST(Lint, JsonRenderingIsWellFormed)
{
    bytecode::Program program = test::simpleLoopProgram();
    const DiagnosticList diagnostics = lintProgram(program);
    const std::string json = diagnosticsToJson(diagnostics.all());
    ASSERT_GE(json.size(), 3u);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    // Every diagnostic carries its pass and severity.
    for (const Diagnostic &d : diagnostics.all()) {
        EXPECT_NE(json.find(d.pass), std::string::npos);
        EXPECT_NE(json.find(severityName(d.severity)),
                  std::string::npos);
    }
}

TEST(Lint, JsonEscapesFileNames)
{
    // The file name goes through the same escaper as every other
    // string: a quote or a backslash in a path keeps the JSON valid.
    Diagnostic d;
    d.file = R"(dir\we"ird.pepasm)";
    d.pass = "assemble";
    d.message = "line 7: missing .end";
    const std::string json = diagnosticsToJson({d});
    EXPECT_NE(json.find(R"({"file": "dir\\we\"ird.pepasm", "severity": )"),
              std::string::npos)
        << json;
    EXPECT_EQ(formatDiagnostic(d),
              R"(dir\we"ird.pepasm: error: [assemble]: line 7: missing .end)");
}

} // namespace
} // namespace pep::analysis
