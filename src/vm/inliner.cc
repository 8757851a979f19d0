#include "vm/inliner.hh"

#include <map>

#include "bytecode/verifier.hh"
#include "support/panic.hh"

namespace pep::vm {

namespace {

using bytecode::Instr;
using bytecode::Method;
using bytecode::Opcode;
using bytecode::Pc;

/** True if the callee may be spliced into `root`. */
bool
eligible(const bytecode::Program &program, bytecode::MethodId root,
         bytecode::MethodId callee)
{
    if (callee == root)
        return false;
    const Method &method = program.methods[callee];
    if (method.code.size() > kInlineMaxCalleeSize)
        return false;
    for (const Instr &instr : method.code) {
        if (instr.op == Opcode::Invoke)
            return false; // leaves only
    }
    return true;
}

/** Per-instruction provenance collected while splicing. */
struct InstrOrigin
{
    bytecode::MethodId method = BlockOrigin::kInvalidOriginMethod;
    Pc pc = 0;
};

} // namespace

std::unique_ptr<InlinedBody>
inlineLeafCalls(const bytecode::Program &program,
                bytecode::MethodId root)
{
    const Method &root_method = program.methods[root];

    // First scan: anything to do?
    bool any = false;
    for (const Instr &instr : root_method.code) {
        if (instr.op == Opcode::Invoke &&
            eligible(program, root,
                     static_cast<bytecode::MethodId>(instr.a))) {
            any = true;
            break;
        }
    }
    if (!any)
        return nullptr;

    auto body = std::make_unique<InlinedBody>();
    Method &out = body->method;
    out.name = root_method.name + "$inl";
    out.numArgs = root_method.numArgs;
    out.returnsValue = root_method.returnsValue;

    std::vector<Instr> code;
    std::vector<InstrOrigin> origin;
    body->rootPcMap.assign(root_method.code.size(), 0);

    std::uint32_t next_local = root_method.numLocals;
    std::uint32_t sites = 0;

    // Returns inside spliced callees become gotos to the join point
    // (the instruction following the splice); their targets are only
    // known once the splice ends.
    struct ReturnPatch
    {
        Pc pc; // the synthesized Goto to patch
    };

    for (Pc root_pc = 0; root_pc < root_method.code.size();
         ++root_pc) {
        const Instr &instr = root_method.code[root_pc];
        body->rootPcMap[root_pc] = static_cast<Pc>(code.size());

        const bool splice =
            instr.op == Opcode::Invoke && sites < kInlineMaxSites &&
            eligible(program, root,
                     static_cast<bytecode::MethodId>(instr.a));
        if (!splice) {
            code.push_back(instr);
            origin.push_back(InstrOrigin{root, root_pc});
            continue;
        }

        ++sites;
        const auto callee_id =
            static_cast<bytecode::MethodId>(instr.a);
        const Method &callee = program.methods[callee_id];
        const std::uint32_t base = next_local;
        next_local += callee.numLocals;

        // Prologue: pop arguments (last argument is on top) into the
        // remapped argument slots, then zero the callee's remaining
        // locals — the semantics of a fresh frame, which matters when
        // the call site sits in a loop.
        for (std::uint32_t i = callee.numArgs; i > 0; --i) {
            code.push_back(Instr{Opcode::Istore,
                                 static_cast<std::int32_t>(
                                     base + i - 1),
                                 0,
                                 {}});
            origin.push_back(InstrOrigin{});
        }
        for (std::uint32_t s = callee.numArgs; s < callee.numLocals;
             ++s) {
            code.push_back(Instr{Opcode::Iconst, 0, 0, {}});
            origin.push_back(InstrOrigin{});
            code.push_back(Instr{Opcode::Istore,
                                 static_cast<std::int32_t>(base + s),
                                 0,
                                 {}});
            origin.push_back(InstrOrigin{});
        }

        // Body: one synthesized instruction per callee instruction, so
        // internal branch targets remap linearly.
        const Pc callee_start = static_cast<Pc>(code.size());
        std::vector<ReturnPatch> returns;
        for (Pc cpc = 0; cpc < callee.code.size(); ++cpc) {
            Instr copy = callee.code[cpc];
            switch (copy.op) {
              case Opcode::Iload:
              case Opcode::Istore:
              case Opcode::Iinc:
                copy.a += static_cast<std::int32_t>(base);
                break;
              case Opcode::Goto:
                copy.a += static_cast<std::int32_t>(callee_start);
                break;
              case Opcode::Tableswitch:
                copy.b += static_cast<std::int32_t>(callee_start);
                for (std::int32_t &target : copy.table)
                    target += static_cast<std::int32_t>(callee_start);
                break;
              case Opcode::Return:
              case Opcode::Ireturn:
                // An ireturn's result is already on the operand
                // stack, which is exactly what the caller expects.
                returns.push_back(
                    ReturnPatch{static_cast<Pc>(code.size())});
                copy = Instr{Opcode::Goto, 0, 0, {}};
                break;
              default:
                if (bytecode::isCondBranch(copy.op)) {
                    copy.a +=
                        static_cast<std::int32_t>(callee_start);
                }
                break;
            }
            code.push_back(std::move(copy));
            origin.push_back(InstrOrigin{callee_id, cpc});
        }

        // Patch callee returns to jump past the splice.
        const auto join = static_cast<std::int32_t>(code.size());
        for (const ReturnPatch &patch : returns)
            code[patch.pc].a = join;
        // The synthesized gotos are control transfers we fabricated;
        // they carry no original branch identity.
        for (const ReturnPatch &patch : returns)
            origin[patch.pc] = InstrOrigin{};
    }

    // Remap surviving root branch targets through rootPcMap.
    for (Pc pc = 0; pc < code.size(); ++pc) {
        if (origin[pc].method != root)
            continue;
        Instr &instr = code[pc];
        switch (instr.op) {
          case Opcode::Goto:
            instr.a = static_cast<std::int32_t>(
                body->rootPcMap[static_cast<Pc>(instr.a)]);
            break;
          case Opcode::Tableswitch:
            instr.b = static_cast<std::int32_t>(
                body->rootPcMap[static_cast<Pc>(instr.b)]);
            for (std::int32_t &target : instr.table) {
                target = static_cast<std::int32_t>(
                    body->rootPcMap[static_cast<Pc>(target)]);
            }
            break;
          default:
            if (bytecode::isCondBranch(instr.op)) {
                instr.a = static_cast<std::int32_t>(
                    body->rootPcMap[static_cast<Pc>(instr.a)]);
            }
            break;
        }
    }

    out.numLocals = next_local;
    out.code = std::move(code);
    body->inlinedSites = sites;

    // The synthesized method must still verify (against the program,
    // for any surviving call sites).
    {
        const bytecode::VerifyResult verified =
            bytecode::verifyMethod(program, out);
        PEP_ASSERT_MSG(verified.ok, "inlined body of "
                                        << root_method.name
                                        << " failed verification: "
                                        << verified.error);
    }

    // CFG + execution tables for the synthesized code.
    body->info = buildMethodInfo(out);
    const cfg::Graph &graph = body->info.cfg.graph;

    // Block origins: a block inherits the provenance of its
    // terminator instruction (what layout and branch counters key on).
    std::map<bytecode::MethodId, bytecode::MethodCfg> origin_cfgs;
    auto cfg_of = [&](bytecode::MethodId m)
        -> const bytecode::MethodCfg & {
        auto it = origin_cfgs.find(m);
        if (it == origin_cfgs.end()) {
            it = origin_cfgs
                     .emplace(m, bytecode::buildCfg(program.methods[m]))
                     .first;
        }
        return it->second;
    };
    body->blockOrigin.assign(graph.numBlocks(), BlockOrigin{});
    for (cfg::BlockId b = 2; b < graph.numBlocks(); ++b) {
        const Pc last = body->info.cfg.lastPc[b];
        const InstrOrigin &instr_origin = origin[last];
        if (instr_origin.method == BlockOrigin::kInvalidOriginMethod)
            continue;
        body->blockOrigin[b] = BlockOrigin{
            instr_origin.method,
            cfg_of(instr_origin.method).blockOfPc[instr_origin.pc]};
    }

    return body;
}

} // namespace pep::vm
