#include "analysis/verify/verify.hh"

#include "analysis/plan_check.hh"
#include "analysis/verify/stream_proof.hh"
#include "vm/compiled_method.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"

namespace pep::analysis {

bool
verifyMachine(const vm::Machine &machine, DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    const vm::FuseOptions live_fuse[] = {machine.params().fuse};

    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        const std::string &name = machine.program().methods[m].name;
        for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
            const vm::CompiledMethod *cm = machine.versionAt(m, v);
            // The version executes its inlined body's code when it has
            // one; all block ids refer to that CFG. Verify under the
            // machine's live fusion selection — the streams the
            // threaded engine actually executes.
            const vm::InlinedBody *body = cm->inlinedBody.get();
            checkTemplateStreams(
                body ? body->method : machine.program().methods[m],
                body ? body->info : machine.info(m), cm, live_fuse, name,
                v, diagnostics);

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
