#include "analysis/lint.hh"

#include "analysis/liveness.hh"
#include "analysis/plan_check.hh"
#include "analysis/stack_const.hh"
#include "analysis/unreachable.hh"
#include "analysis/verify/stream_proof.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/verifier.hh"
#include "profile/instr_plan.hh"
#include "profile/numbering.hh"
#include "profile/pdag.hh"
#include "profile/spanning_placement.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

using profile::DagMode;
using profile::NumberingScheme;
using profile::PlacementKind;

/** Uniform DAG edge frequencies (lint has no runtime profile). */
profile::DagEdgeFreqs
uniformFreqs(const cfg::Graph &dag)
{
    profile::DagEdgeFreqs freqs(dag.numBlocks());
    for (cfg::BlockId v = 0; v < dag.numBlocks(); ++v)
        freqs[v].assign(dag.succs(v).size(), 1.0);
    return freqs;
}

/** Build and check one (mode, scheme, placement) configuration. */
void
checkOnePlan(const bytecode::Method &method,
             const bytecode::MethodCfg &cfg, DagMode mode,
             NumberingScheme scheme, PlacementKind placement,
             std::uint64_t simulate_limit,
             DiagnosticList &diagnostics)
{
    const profile::PDag pdag = profile::buildPDag(cfg, mode);
    const profile::DagEdgeFreqs freqs = uniformFreqs(pdag.dag);
    const profile::Numbering numbering = profile::numberPaths(
        pdag, scheme,
        scheme == NumberingScheme::BallLarus ? nullptr : &freqs);
    profile::InstrumentationPlan plan =
        profile::buildInstrumentationPlan(cfg, pdag, numbering);

    profile::SpanningPlacement spanning;
    if (placement == PlacementKind::SpanningTree && plan.enabled) {
        spanning =
            profile::computeSpanningPlacement(pdag, numbering, &freqs);
        profile::applySpanningPlacement(cfg, pdag, spanning, plan);
    }

    PlanCheckInput input;
    input.cfg = &cfg;
    input.pdag = &pdag;
    input.numbering = &numbering;
    input.plan = &plan;
    input.placement = placement;
    input.spanning =
        placement == PlacementKind::SpanningTree ? &spanning : nullptr;
    input.scheme = scheme;
    input.freqs = &freqs;
    input.methodName = method.name;
    input.simulateLimit = simulate_limit;
    checkInstrumentationPlan(input, diagnostics);
}

} // namespace

DiagnosticList
lintProgram(bytecode::Program &program, const LintOptions &options)
{
    DiagnosticList diagnostics;

    if (options.runVerifier) {
        const bytecode::VerifyResult verified =
            bytecode::verifyProgram(program);
        for (const bytecode::VerifyDiagnostic &d :
             verified.diagnostics) {
            Diagnostic &out = diagnostics.report(
                Severity::Error, "verify", d.method, d.message);
            out.hasPc = d.hasPc;
            out.pc = d.pc;
        }
        // The CFG builder panics on unverified code; stop here.
        if (!verified.ok)
            return diagnostics;
    }

    if (!options.runMethodPasses && !options.runPlanChecks)
        return diagnostics;

    for (const bytecode::Method &method : program.methods) {
        const bytecode::MethodCfg cfg = bytecode::buildCfg(method);

        if (options.runMethodPasses) {
            const LivenessResult liveness =
                computeLiveness(method, cfg);
            reportDeadStores(method, cfg, liveness, diagnostics);
            reportUnreachableCode(method, cfg, diagnostics);
            const StackConstResult stack_const =
                computeStackConst(program, method, cfg);
            reportStackConstFindings(program, method, cfg, stack_const,
                                     diagnostics);
        }

        if (options.runPlanChecks) {
            for (const DagMode mode :
                 {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
                checkOnePlan(method, cfg, mode,
                             NumberingScheme::BallLarus,
                             PlacementKind::Direct,
                             options.simulateLimit, diagnostics);
                checkOnePlan(method, cfg, mode,
                             NumberingScheme::BallLarus,
                             PlacementKind::SpanningTree,
                             options.simulateLimit, diagnostics);
                checkOnePlan(method, cfg, mode,
                             NumberingScheme::Smart,
                             PlacementKind::Direct,
                             options.simulateLimit, diagnostics);
            }
            checkTemplateStreams(method, vm::buildMethodInfo(method),
                                 nullptr, kEveryFuseOption, method.name,
                                 std::nullopt, diagnostics);
        }
    }
    return diagnostics;
}

} // namespace pep::analysis
