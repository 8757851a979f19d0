#include "common/fixtures.hh"

#include <fstream>
#include <sstream>

#include "analysis/verify/stream_proof.hh"
#include "bytecode/verifier.hh"
#include "support/panic.hh"
#include "testing/observables.hh"
#include "vm/interpreter.hh"

namespace pep::test {

namespace {

using bytecode::Opcode;
using workload::Label;
using workload::MethodBuilder;

/** Emit `Irnd & mask` (leaves one value on the stack). */
void
emitRand(MethodBuilder &b, std::int32_t mask)
{
    b.emit(Opcode::Irnd);
    b.iconst(mask);
    b.emit(Opcode::Iand);
}

void emitElements(MethodBuilder &b, support::Rng &rng,
                  std::uint32_t budget, std::uint32_t depth,
                  std::uint32_t scratch);

void
emitDiamond(MethodBuilder &b, support::Rng &rng, std::uint32_t budget,
            std::uint32_t depth, std::uint32_t scratch)
{
    emitRand(b, 3);
    Label then_label = b.newLabel();
    Label join = b.newLabel();
    b.branch(Opcode::Ifeq, then_label);
    emitElements(b, rng, budget / 2, depth + 1, scratch);
    b.jump(join);
    b.bind(then_label);
    emitElements(b, rng, budget / 2, depth + 1, scratch);
    b.bind(join);
}

void
emitSwitch(MethodBuilder &b, support::Rng &rng, std::uint32_t budget,
           std::uint32_t depth, std::uint32_t scratch)
{
    const std::uint32_t cases =
        2 + static_cast<std::uint32_t>(rng.nextBounded(3));
    emitRand(b, 7);
    std::vector<Label> labels;
    for (std::uint32_t i = 0; i < cases; ++i)
        labels.push_back(b.newLabel());
    Label def = b.newLabel();
    Label join = b.newLabel();
    b.tableswitch(0, def, labels);
    for (std::uint32_t i = 0; i < cases; ++i) {
        b.bind(labels[i]);
        emitElements(b, rng, budget / 3, depth + 1, scratch);
        b.jump(join);
    }
    b.bind(def);
    emitElements(b, rng, budget / 3, depth + 1, scratch);
    b.bind(join);
}

void
emitLoop(MethodBuilder &b, support::Rng &rng, std::uint32_t budget,
         std::uint32_t depth, std::uint32_t scratch)
{
    const std::uint32_t counter = b.newLocal();
    emitRand(b, 3);
    b.istore(counter);
    Label header = b.newLabel();
    Label done = b.newLabel();
    b.bind(header);
    b.iload(counter);
    b.branch(Opcode::Ifle, done);
    emitElements(b, rng, budget / 2, depth + 1, scratch);
    b.iinc(counter, -1);
    b.jump(header);
    b.bind(done);
}

void
emitElements(MethodBuilder &b, support::Rng &rng, std::uint32_t budget,
             std::uint32_t depth, std::uint32_t scratch)
{
    if (budget == 0 || depth > 4) {
        b.iinc(scratch, 1);
        return;
    }
    const std::uint32_t count =
        1 + static_cast<std::uint32_t>(rng.nextBounded(budget));
    for (std::uint32_t i = 0; i < count && i < 3; ++i) {
        switch (rng.nextBounded(5)) {
          case 0:
            emitSwitch(b, rng, budget - 1, depth, scratch);
            break;
          case 1:
          case 2:
            emitDiamond(b, rng, budget - 1, depth, scratch);
            break;
          case 3:
            emitLoop(b, rng, budget - 1, depth, scratch);
            break;
          default:
            b.iinc(scratch, 3);
            break;
        }
    }
}

} // namespace

bytecode::Method
randomStructuredMethod(support::Rng &rng, const std::string &name,
                       std::uint32_t max_elements)
{
    MethodBuilder b(name, 0, false);
    const std::uint32_t scratch = b.newLocal();
    b.iconst(0);
    b.istore(scratch);
    emitElements(b, rng, max_elements, 0, scratch);
    b.ret();
    return b.build();
}

bytecode::Program
randomStructuredProgram(std::uint64_t seed, std::uint32_t max_elements)
{
    support::Rng rng(seed);
    bytecode::Program program;
    program.globalSize = 4;
    program.methods.push_back(
        randomStructuredMethod(rng, "main", max_elements));
    program.mainMethod = 0;
    const bytecode::VerifyResult verified =
        bytecode::verifyProgram(program);
    PEP_ASSERT_MSG(verified.ok,
                   "random program invalid: " << verified.error);
    return program;
}

Translated::Translated(const bytecode::Method &method, vm::FuseOptions fuse)
    : info(vm::buildMethodInfo(method)),
      cm(analysis::canonicalVersion(info.cfg)),
      decoded(vm::translateMethod(method, info, cm, fuse))
{
}

ParkedRun
runWithConstantParking(const bytecode::Program &p, vm::EngineKind kind,
                       vm::FuseOptions fuse)
{
    vm::SimParams params;
    params.engine = kind;
    params.fuse = fuse;
    params.tickCycles = 20'000; // fast ticks: exercise promotion
    vm::Machine machine(p, params);
    SwitchEveryYieldpoint scheduler;
    machine.setScheduler(&scheduler);
    vm::Interpreter interp(machine, 0);
    interp.start(p.mainMethod);
    ParkedRun run;
    while (!interp.resume())
        ++run.parks;
    machine.setScheduler(nullptr);
    run.state = testing::serializeRun(machine);
    return run;
}

std::map<std::string, std::string>
readPepasmFiles(const std::filesystem::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".pepasm")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        files[entry.path().filename().string()] = text.str();
    }
    return files;
}

void
forEachMalformedVariant(
    const std::string &text, std::uint64_t seed, int corruptions,
    const std::function<void(const std::string &input,
                             const std::string &how)> &visit)
{
    for (std::size_t length = 0; length < text.size(); ++length)
        visit(text.substr(0, length), "prefix " + std::to_string(length));
    if (text.empty())
        return;
    support::Rng rng(seed);
    std::string corrupt = text;
    for (int i = 0; i < corruptions; ++i) {
        const std::size_t at = rng.nextBounded(text.size());
        corrupt[at] = static_cast<char>(rng.nextBounded(256));
        visit(corrupt, "byte " + std::to_string(at) + " = " +
                           std::to_string(static_cast<unsigned char>(
                               corrupt[at])));
        corrupt[at] = text[at];
    }
}

} // namespace pep::test

namespace pep::profile {

void
PrintTo(const EdgeProfileSet &set, std::ostream *os)
{
    for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
        *os << "\nmethod " << m << ':';
        for (const auto &per_block : set.perMethod[m].counts())
            for (const std::uint64_t count : per_block)
                *os << ' ' << count;
    }
}

} // namespace pep::profile
