#include "analysis/verify/verify.hh"

#include "analysis/plan_check.hh"
#include "analysis/verify/stream_proof.hh"
#include "vm/compiled_method.hh"
#include "vm/decoded_method.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"

namespace pep::analysis {

bool
verifyMachine(const vm::Machine &machine, DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();

    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        const std::string &name = machine.program().methods[m].name;
        for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
            const vm::CompiledMethod *cm = machine.versionAt(m, v);
            // The version executes its inlined body's code when it has
            // one; all block ids refer to that CFG. Prove the stream
            // the threaded engine executes — or, where none is cached
            // (the switch engine), the one it would translate: under
            // the machine's fusion selection, against the version's
            // inline path plan.
            const vm::InlinedBody *body = cm->inlinedBody.get();
            const bytecode::Method &code =
                body ? body->method : machine.program().methods[m];
            const vm::MethodInfo &info = body ? body->info : machine.info(m);
            vm::PathPlan *plan = machine.inlinePlanFor(*cm);
            vm::DecodedMethod translated;
            const vm::DecodedMethod *decoded = machine.decodedAt(m, v);
            if (!decoded) {
                translated = vm::translateMethod(
                    code, info, *cm, machine.params().fuse, plan);
                decoded = &translated;
            }
            TemplateCheckInput stream;
            stream.code = &code;
            stream.info = &info;
            stream.cm = cm;
            stream.decoded = decoded;
            stream.methodName = name;
            stream.version = v;
            stream.plan = plan;
            checkTemplateStream(stream, diagnostics);

            // Check 11 over every clone-synthesized body.
            if (!cm->cloneApplied)
                continue;
            if (!body) {
                Diagnostic &d = diagnostics.report(
                    Severity::Error, "plan-check", name,
                    "clone-applied version carries no synthesized body");
                d.check = "clone-body";
                d.hasVersion = true;
                d.version = v;
                continue;
            }
            CloneCheckInput input;
            input.rootMethod = m;
            input.originalCfg = &machine.info(m).cfg;
            input.body = body;
            input.methodName = name;
            checkClonedBody(input, diagnostics);
        }
    }

    return diagnostics.errorCount() == before;
}

} // namespace pep::analysis
