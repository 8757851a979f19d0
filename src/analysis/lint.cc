#include "analysis/lint.hh"

#include <utility>

#include "analysis/liveness.hh"
#include "analysis/plan_check.hh"
#include "analysis/stack_const.hh"
#include "analysis/unreachable.hh"
#include "analysis/verify/stream_proof.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/verifier.hh"
#include "profile/plan_state.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

using profile::DagMode;
using profile::NumberingScheme;
using profile::PlacementKind;

/** The (numbering, placement) pairs lint checks under both DAG modes.
 *  Lint has no profile, so every edge weighs the same. */
constexpr std::pair<NumberingScheme, PlacementKind> kPlanConfigs[] = {
    {NumberingScheme::BallLarus, PlacementKind::Direct},
    {NumberingScheme::BallLarus, PlacementKind::SpanningTree},
    {NumberingScheme::Smart, PlacementKind::Direct},
};

} // namespace

DiagnosticList
lintProgram(bytecode::Program &program)
{
    DiagnosticList diagnostics;

    const bytecode::VerifyResult verified = bytecode::verifyProgram(program);
    for (const bytecode::VerifyDiagnostic &d : verified.diagnostics) {
        Diagnostic &out = diagnostics.report(Severity::Error, "verify",
                                             d.method, d.message);
        out.hasPc = d.hasPc;
        out.pc = d.pc;
    }
    // The CFG builder panics on unverified code; stop here.
    if (!verified.ok)
        return diagnostics;

    for (const bytecode::Method &method : program.methods) {
        const bytecode::MethodCfg cfg = bytecode::buildCfg(method);

        const LivenessResult liveness = computeLiveness(method, cfg);
        reportDeadStores(method, cfg, liveness, diagnostics);
        reportUnreachableCode(method, cfg, diagnostics);
        const StackConstResult stack_const =
            computeStackConst(program, method, cfg);
        reportStackConstFindings(program, method, cfg, stack_const,
                                 diagnostics);

        for (const DagMode mode :
             {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
            for (const auto &[scheme, placement] : kPlanConfigs) {
                const profile::PlanState state(cfg, mode, scheme, nullptr,
                                               placement);
                checkInstrumentationPlan(cfg, state, method.name,
                                         diagnostics);
            }
        }
        checkTemplateStreams(method, vm::buildMethodInfo(method),
                             nullptr, kEveryFuseOption, method.name,
                             std::nullopt, diagnostics);
    }
    return diagnostics;
}

} // namespace pep::analysis
