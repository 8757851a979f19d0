/**
 * @file
 * Tests for the pep-verify passes (analysis/verify/, docs/ANALYSIS.md):
 *
 *  - the examples corpus is clean under both passes, statically
 *    (verifyProgram, lintProgram) and on a live machine under both
 *    execution engines (verifyMachine), also after a relayout;
 *  - seeded-bug rejection per pass: each check catches a deliberately
 *    corrupted template stream / profile;
 *  - diagnostic ordering is deterministic.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.hh"
#include "analysis/lint.hh"
#include "analysis/verify/realizability.hh"
#include "analysis/verify/stream_proof.hh"
#include "analysis/verify/verify.hh"
#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/verifier.hh"
#include "common/fixtures.hh"
#include "profile/instr_plan.hh"
#include "profile/kpath.hh"
#include "profile/numbering.hh"
#include "profile/path_profile.hh"
#include "profile/pdag.hh"
#include "profile/reconstruct.hh"
#include "vm/compiled_method.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/layout.hh"
#include "vm/machine.hh"

namespace {

using namespace pep;
using analysis::Diagnostic;
using analysis::DiagnosticList;
using analysis::Severity;

std::vector<std::filesystem::path>
examplePrograms()
{
    const std::filesystem::path dir =
        std::filesystem::path(PEP_SOURCE_DIR) / "examples" / "programs";
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".pepasm")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

bytecode::Program
loadProgram(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const bytecode::AssembleResult assembled =
        bytecode::assemble(buffer.str());
    EXPECT_TRUE(assembled.ok) << assembled.error;
    return assembled.program;
}

/** True if some error carries the given (pass, check). */
bool
hasError(const DiagnosticList &diagnostics, const std::string &pass,
         const std::string &check)
{
    for (const Diagnostic &d : diagnostics.all()) {
        if (d.severity == Severity::Error && d.pass == pass &&
            d.check == check)
            return true;
    }
    return false;
}

std::string
describe(const DiagnosticList &diagnostics)
{
    std::ostringstream os;
    for (const Diagnostic &d : diagnostics.all())
        os << analysis::formatDiagnostic(d) << "\n";
    return os.str();
}

vm::SimParams
testParams(vm::EngineKind engine)
{
    vm::SimParams params;
    params.engine = engine;
    params.tickCycles = 9'000;
    params.maxCyclesPerIteration = 50'000'000;
    return params;
}

/**
 * The canonical full-opt translation the static passes check: Opt2,
 * unscaled costs, no layout information — exactly what verifyProgram
 * and the lint's template check synthesize.
 */
struct CanonicalTranslation
{
    vm::MethodInfo info;
    vm::CompiledMethod cm;
    vm::DecodedMethod decoded;
};

CanonicalTranslation
translateCanonical(const bytecode::Method &method)
{
    CanonicalTranslation t;
    t.info = vm::buildMethodInfo(method);
    t.cm.level = vm::OptLevel::Opt2;
    const vm::CostModel cost;
    t.cm.scaledCost.resize(bytecode::kNumOpcodes);
    for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
        t.cm.scaledCost[op] =
            cost.instrCost(static_cast<bytecode::Opcode>(op));
    t.cm.branchLayout.assign(t.info.cfg.graph.numBlocks(), -1);
    t.decoded = vm::translateMethod(method, t.info, t.cm);
    return t;
}

analysis::TemplateCheckInput
equivInput(const bytecode::Method &method,
           const CanonicalTranslation &t)
{
    analysis::TemplateCheckInput input;
    input.code = &method;
    input.info = &t.info;
    input.cm = &t.cm;
    input.decoded = &t.decoded;
    input.methodName = method.name;
    return input;
}

/** A verified example method that has a conditional branch. */
bytecode::Method
methodWithCondBranch()
{
    for (const auto &path : examplePrograms()) {
        bytecode::Program program = loadProgram(path);
        if (!bytecode::verifyProgram(program).ok)
            continue;
        for (const bytecode::Method &method : program.methods) {
            const bytecode::MethodCfg cfg = bytecode::buildCfg(method);
            for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
                if (cfg.terminator[b] == bytecode::TerminatorKind::Cond)
                    return method;
            }
        }
    }
    ADD_FAILURE() << "no example method with a conditional branch";
    return {};
}

cfg::BlockId
firstCondBlock(const bytecode::MethodCfg &cfg)
{
    for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
        if (cfg.terminator[b] == bytecode::TerminatorKind::Cond)
            return b;
    }
    return cfg::kInvalidBlock;
}

// ---- Pass 1: the examples corpus is clean, statically ----------------

TEST(VerifyProgram, ExamplesCleanStatically)
{
    for (const auto &path : examplePrograms()) {
        SCOPED_TRACE(path.filename().string());
        bytecode::Program program = loadProgram(path);

        DiagnosticList diagnostics;
        EXPECT_TRUE(analysis::verifyProgram(program, diagnostics))
            << describe(diagnostics);
        EXPECT_EQ(diagnostics.errorCount(), 0u)
            << describe(diagnostics);
    }
}

TEST(VerifyProgram, LintVerifyModeCleanOnExamples)
{
    // pep_lint always runs the stream proof (what `--verify` used to
    // add) next to the plan checks, over every example.
    for (const auto &path : examplePrograms()) {
        SCOPED_TRACE(path.filename().string());
        bytecode::Program program = loadProgram(path);

        analysis::LintOptions options;
        options.runMethodPasses = false;
        const DiagnosticList diagnostics =
            analysis::lintProgram(program, options);
        EXPECT_EQ(diagnostics.errorCount(), 0u)
            << describe(diagnostics);
    }
}

// ---- verifyMachine over live runs, both engines ----------------------

class VerifyMachineTest
    : public ::testing::TestWithParam<vm::EngineKind>
{
};

INSTANTIATE_TEST_SUITE_P(Engines, VerifyMachineTest,
                         ::testing::Values(vm::EngineKind::Switch,
                                           vm::EngineKind::Threaded),
                         [](const auto &info) {
                             return std::string(
                                 vm::engineKindName(info.param));
                         });

TEST_P(VerifyMachineTest, ExamplesCleanAfterRun)
{
    for (const auto &path : examplePrograms()) {
        SCOPED_TRACE(path.filename().string());
        const bytecode::Program program = loadProgram(path);
        vm::Machine machine(program, testParams(GetParam()));
        for (int it = 0; it < 2; ++it)
            machine.runIteration();

        DiagnosticList diagnostics;
        EXPECT_TRUE(analysis::verifyMachine(machine, diagnostics))
            << describe(diagnostics);
    }
}

TEST_P(VerifyMachineTest, RelayoutThenVerifyRoundTrip)
{
    const bytecode::Program program =
        loadProgram(examplePrograms().front());
    vm::Machine machine(program, testParams(GetParam()));
    machine.runIteration();

    // Relayout every optimized method against its observed profile
    // with every two-way branch's counts swapped. A relayout is a
    // recompile: installed versions never change, so the new versions
    // carry the new layouts and the old ones keep theirs.
    const profile::EdgeProfileSet &truth = machine.truthEdges();
    profile::EdgeProfileSet flipped = truth;
    flipped.clear();
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const auto &counts = truth.perMethod[m].counts();
        for (cfg::BlockId b = 0; b < counts.size(); ++b) {
            if (counts[b].size() != 2)
                continue;
            flipped.perMethod[m].addEdge({b, 0}, counts[b][1]);
            flipped.perMethod[m].addEdge({b, 1}, counts[b][0]);
        }
    }
    vm::FixedLayoutSource source(flipped);
    machine.setLayoutSource(&source);
    std::size_t relaid = 0;
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const auto method = static_cast<bytecode::MethodId>(m);
        const vm::CompiledMethod *before = machine.currentVersion(method);
        if (!before || before->level == vm::OptLevel::Baseline)
            continue;
        const vm::CompiledMethod &after =
            machine.compileNow(method, before->level);
        relaid += after.branchLayout != before->branchLayout;
    }
    ASSERT_GT(relaid, 0u) << "no optimized version changed its layout";

    DiagnosticList clean;
    EXPECT_TRUE(analysis::verifyMachine(machine, clean))
        << describe(clean);

    // The machine still runs, and stays verifiable.
    machine.runIteration();
    DiagnosticList after_run;
    EXPECT_TRUE(analysis::verifyMachine(machine, after_run))
        << describe(after_run);
}

// ---- Pass 1 seeded bugs: engine equivalence --------------------------

TEST(EngineEquiv, CanonicalTranslationIsEquivalent)
{
    const bytecode::Method method = methodWithCondBranch();
    const CanonicalTranslation t = translateCanonical(method);
    DiagnosticList diagnostics;
    EXPECT_TRUE(analysis::checkTemplateStream(equivInput(method, t),
                                                 diagnostics))
        << describe(diagnostics);
}

TEST(EngineEquiv, RejectsCorruptedSegmentCost)
{
    const bytecode::Method method = methodWithCondBranch();
    CanonicalTranslation t = translateCanonical(method);

    bool corrupted = false;
    for (vm::Template &tpl : t.decoded.stream) {
        if (tpl.cost > 0) {
            ++tpl.cost;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);

    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkTemplateStream(
        equivInput(method, t), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "engine-equiv", "segment-cost"))
        << describe(diagnostics);
}

TEST(EngineEquiv, RejectsCorruptedEdgeBase)
{
    const bytecode::Method method = methodWithCondBranch();
    CanonicalTranslation t = translateCanonical(method);
    ASSERT_GT(t.decoded.edgeBase.size(), 2u);
    ++t.decoded.edgeBase[2];

    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkTemplateStream(
        equivInput(method, t), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "engine-equiv", "edge-base"))
        << describe(diagnostics);
}

TEST(EngineEquiv, RejectsCorruptedBakedLayout)
{
    const bytecode::Method method = methodWithCondBranch();
    CanonicalTranslation t = translateCanonical(method);

    const cfg::BlockId b = firstCondBlock(t.info.cfg);
    ASSERT_NE(b, cfg::kInvalidBlock);
    vm::Template &branch =
        t.decoded.stream[t.decoded.pcToTemplate[t.info.cfg.branchPc(b)]];
    branch.layout = 1; // installed version says -1

    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkTemplateStream(
        equivInput(method, t), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "engine-equiv", "layout"))
        << describe(diagnostics);
}

TEST(EngineEquiv, RejectsCorruptedFlatEdgeId)
{
    const bytecode::Method method = methodWithCondBranch();
    CanonicalTranslation t = translateCanonical(method);

    const cfg::BlockId b = firstCondBlock(t.info.cfg);
    ASSERT_NE(b, cfg::kInvalidBlock);
    vm::Template &branch =
        t.decoded.stream[t.decoded.pcToTemplate[t.info.cfg.branchPc(b)]];
    ++branch.flatBase; // profile counters would fire the wrong edge id

    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkTemplateStream(
        equivInput(method, t), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "engine-equiv", "control-exit"))
        << describe(diagnostics);
}

TEST(EngineEquiv, RejectsCorruptedHeaderFlag)
{
    const bytecode::Method method = methodWithCondBranch();
    CanonicalTranslation t = translateCanonical(method);

    const cfg::BlockId b = firstCondBlock(t.info.cfg);
    ASSERT_NE(b, cfg::kInvalidBlock);
    vm::Template &branch =
        t.decoded.stream[t.decoded.pcToTemplate[t.info.cfg.branchPc(b)]];
    branch.flags ^= vm::kTplTakenHeader; // yieldpoints would misfire

    DiagnosticList diagnostics;
    EXPECT_FALSE(analysis::checkTemplateStream(
        equivInput(method, t), diagnostics));
    EXPECT_TRUE(hasError(diagnostics, "engine-equiv", "yieldpoint"))
        << describe(diagnostics);
}

// ---- Pass 2 seeded bugs: profile realizability -----------------------

TEST(Realizability, TruthProfileConservesAndCorruptionIsRejected)
{
    const bytecode::Program program =
        loadProgram(examplePrograms().front());
    vm::Machine machine(program,
                        testParams(vm::EngineKind::Switch));
    machine.runIteration();

    analysis::RealizabilityOptions options;
    options.requireHeaderConservation = true; // full-frame truth counts
    options.what = "truth";

    DiagnosticList clean;
    EXPECT_TRUE(analysis::checkEdgeSetRealizability(
        machine, machine.truthEdges(), options, clean))
        << describe(clean);

    // One phantom crossing breaks Kirchhoff conservation at its source
    // block — no execution could have recorded the result.
    profile::EdgeProfileSet corrupt = machine.truthEdges();
    bool bumped = false;
    for (std::size_t m = 0; m < machine.numMethods() && !bumped; ++m) {
        const bytecode::MethodCfg &cfg =
            machine.info(static_cast<bytecode::MethodId>(m)).cfg;
        for (cfg::BlockId b = 0; b < cfg.graph.numBlocks(); ++b) {
            if (!cfg.isCodeBlock(b) || cfg.isLoopHeader[b] ||
                cfg.graph.succs(b).empty())
                continue;
            corrupt.perMethod[m].addEdge({b, 0}, 1);
            bumped = true;
            break;
        }
    }
    ASSERT_TRUE(bumped);

    DiagnosticList rejected;
    EXPECT_FALSE(analysis::checkEdgeSetRealizability(
        machine, corrupt, options, rejected));
    EXPECT_TRUE(
        hasError(rejected, "realizability", "flow-conservation"))
        << describe(rejected);
}

TEST(Realizability, RejectsOutOfRangePathNumberAndOverBudget)
{
    const bytecode::Method method = methodWithCondBranch();
    const bytecode::MethodCfg cfg = bytecode::buildCfg(method);
    const profile::PDag pdag =
        profile::buildPDag(cfg, profile::DagMode::HeaderSplit);
    const profile::Numbering numbering = profile::numberPaths(
        pdag, profile::NumberingScheme::BallLarus, nullptr);
    const profile::InstrumentationPlan plan =
        profile::buildInstrumentationPlan(cfg, pdag, numbering);
    ASSERT_TRUE(plan.enabled);
    ASSERT_GT(plan.totalPaths, 0u);
    const profile::PathReconstructor reconstructor(cfg, pdag,
                                                   numbering);

    analysis::RealizabilityOptions options;
    options.what = "path profile";

    profile::MethodPathProfile valid;
    valid.addSample(0);
    DiagnosticList clean;
    EXPECT_TRUE(analysis::checkPathProfileRealizability(
        plan, reconstructor, valid, options, /*max_total=*/1,
        method.name, false, 0, clean))
        << describe(clean);

    // A register value beyond the numbering's range cannot come from
    // correct instrumentation.
    profile::MethodPathProfile out_of_range;
    out_of_range.addSample(plan.totalPaths + 3);
    DiagnosticList range;
    EXPECT_FALSE(analysis::checkPathProfileRealizability(
        plan, reconstructor, out_of_range, options, 0, method.name,
        false, 0, range));
    EXPECT_TRUE(hasError(range, "realizability", "path-range"))
        << describe(range);

    // More recorded walks than the sampler took.
    profile::MethodPathProfile over_budget;
    over_budget.addSample(0, 10);
    DiagnosticList budget;
    EXPECT_FALSE(analysis::checkPathProfileRealizability(
        plan, reconstructor, over_budget, options, /*max_total=*/5,
        method.name, false, 0, budget));
    EXPECT_TRUE(hasError(budget, "realizability", "walk-bound"))
        << describe(budget);
}

TEST(Realizability, KPathWindowsMustChainThroughLoopHeaders)
{
    // Composite k-path ids are accepted only when their decoded
    // segments chain: digit j ends at the loop header digit j+1 starts
    // from, and nothing follows a segment that reached method exit.
    const bytecode::Program program = test::figure1Program();
    const bytecode::Method &method =
        program.methods[program.mainMethod];
    const bytecode::MethodCfg cfg = bytecode::buildCfg(method);
    const profile::PDag pdag =
        profile::buildPDag(cfg, profile::DagMode::HeaderSplit);
    const profile::Numbering numbering = profile::numberPaths(
        pdag, profile::NumberingScheme::BallLarus, nullptr);
    const profile::InstrumentationPlan plan =
        profile::buildInstrumentationPlan(cfg, pdag, numbering);
    ASSERT_TRUE(plan.enabled);
    const profile::PathReconstructor reconstructor(cfg, pdag,
                                                   numbering);
    const profile::KPathScheme kpath(plan.totalPaths, 2);
    ASSERT_EQ(kpath.kEffective(), 2u);

    // A body segment loops header->header; an exit segment ends the
    // frame (endHeader == kInvalidBlock).
    std::uint64_t body = plan.totalPaths, exit_segment = plan.totalPaths;
    for (std::uint64_t n = 0; n < plan.totalPaths; ++n) {
        const profile::ReconstructedPath r =
            reconstructor.reconstruct(n);
        if (r.endHeader != cfg::kInvalidBlock &&
            r.startHeader == r.endHeader && body == plan.totalPaths)
            body = n;
        if (r.endHeader == cfg::kInvalidBlock &&
            exit_segment == plan.totalPaths)
            exit_segment = n;
    }
    ASSERT_LT(body, plan.totalPaths);
    ASSERT_LT(exit_segment, plan.totalPaths);

    analysis::RealizabilityOptions options;
    options.what = "k-path profile";
    options.walkMultiplicity = 2;

    // [body, body] chains and must verify clean.
    const std::vector<std::uint64_t> chained = {body, body};
    profile::MethodPathProfile valid;
    valid.addSample(kpath.encode(chained));
    DiagnosticList clean;
    EXPECT_TRUE(analysis::checkPathProfileRealizability(
        plan, reconstructor, valid, options, /*max_total=*/1,
        method.name, false, 0, clean, &kpath))
        << describe(clean);

    // [exit, body] claims a segment after the frame ended — no
    // execution produces that window.
    const std::vector<std::uint64_t> broken = {exit_segment, body};
    profile::MethodPathProfile unwalkable;
    unwalkable.addSample(kpath.encode(broken));
    DiagnosticList chain;
    EXPECT_FALSE(analysis::checkPathProfileRealizability(
        plan, reconstructor, unwalkable, options, /*max_total=*/1,
        method.name, false, 0, chain, &kpath));
    EXPECT_TRUE(hasError(chain, "realizability", "kpath-chain"))
        << describe(chain);

    // Ids past the composite id space are rejected with the k-aware
    // range message, and ids the raw numbering would reject are legal
    // composite windows under the scheme.
    profile::MethodPathProfile out_of_range;
    out_of_range.addSample(kpath.maxId() + 1);
    DiagnosticList range;
    EXPECT_FALSE(analysis::checkPathProfileRealizability(
        plan, reconstructor, out_of_range, options, /*max_total=*/1,
        method.name, false, 0, range, &kpath));
    EXPECT_TRUE(hasError(range, "realizability", "path-range"))
        << describe(range);
}

// ---- Deterministic diagnostic ordering -------------------------------

TEST(Diagnostics, SortOrderIsDeterministic)
{
    std::vector<Diagnostic> diagnostics;
    auto make = [](std::string method, std::uint32_t version,
                   std::string pass, std::string check,
                   bytecode::Pc pc) {
        Diagnostic d;
        d.method = std::move(method);
        d.hasVersion = true;
        d.version = version;
        d.pass = std::move(pass);
        d.check = std::move(check);
        d.hasPc = true;
        d.pc = pc;
        return d;
    };
    diagnostics.push_back(make("b", 0, "engine-equiv", "layout", 4));
    diagnostics.push_back(make("a", 1, "engine-equiv", "layout", 9));
    diagnostics.push_back(make("a", 0, "realizability", "walk-bound", 2));
    diagnostics.push_back(make("a", 0, "engine-equiv", "yieldpoint", 7));
    diagnostics.push_back(make("a", 0, "engine-equiv", "layout", 3));
    diagnostics.push_back(make("a", 0, "engine-equiv", "layout", 1));

    analysis::sortDiagnostics(diagnostics);

    // (method, version, pass, check, location).
    EXPECT_EQ(diagnostics[0].method, "a");
    EXPECT_EQ(diagnostics[0].check, "layout");
    EXPECT_EQ(diagnostics[0].pc, 1u);
    EXPECT_EQ(diagnostics[1].pc, 3u);
    EXPECT_EQ(diagnostics[2].check, "yieldpoint");
    EXPECT_EQ(diagnostics[3].pass, "realizability");
    EXPECT_EQ(diagnostics[4].version, 1u);
    EXPECT_EQ(diagnostics[5].method, "b");

    // Sorting is idempotent and input-order independent.
    std::vector<Diagnostic> reversed(diagnostics.rbegin(),
                                     diagnostics.rend());
    analysis::sortDiagnostics(reversed);
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        EXPECT_EQ(reversed[i].method, diagnostics[i].method);
        EXPECT_EQ(reversed[i].check, diagnostics[i].check);
        EXPECT_EQ(reversed[i].pc, diagnostics[i].pc);
    }
}

} // namespace
