#include "testing/generator.hh"

#include <cstdlib>
#include <string>
#include <vector>

#include "support/rng.hh"
#include "workload/program_builder.hh"

namespace pep::testing {

namespace {

using bytecode::Opcode;
using workload::Label;
using workload::MethodBuilder;

/** A callable method as seen by a body generator. */
struct Callee
{
    bytecode::MethodId id = 0;
    std::uint32_t numArgs = 0;
    bool returnsValue = false;
};

/**
 * Emits one method body as a recursive statement list. Invariant: the
 * operand stack is empty between statements, so any statement order and
 * any branch structure verifies.
 */
class BodyGen
{
  public:
    BodyGen(MethodBuilder &b, support::Rng rng,
            std::vector<Callee> callees, std::uint32_t num_args,
            bool returns_value, const FuzzSpec &spec)
        : b_(b), rng_(rng), callees_(std::move(callees)),
          numArgs_(num_args), returnsValue_(returns_value), spec_(spec)
    {
        scratch_[0] = b_.newLocal();
        scratch_[1] = b_.newLocal();
    }

    void
    run()
    {
        budget_ = 2 + static_cast<std::uint32_t>(
                          rng_.nextBounded(spec_.maxElements));
        stmtList(0);
        emitReturn();
    }

  private:
    /** Push one int (a "condition" value). */
    void
    pushValue()
    {
        switch (rng_.nextBounded(numArgs_ > 0 ? 4 : 3)) {
          case 0: { // data-dependent bits from the VM's random stream
            b_.emit(Opcode::Irnd);
            b_.iconst(
                static_cast<std::int32_t>(1 + rng_.nextBounded(7)));
            b_.emit(Opcode::Iand);
            break;
          }
          case 1:
            b_.iload(scratch_[rng_.nextBounded(2)]);
            break;
          case 2:
            b_.iconst(static_cast<std::int32_t>(rng_.nextBounded(8)));
            b_.emit(Opcode::Gload);
            break;
          default:
            b_.iload(b_.argSlot(static_cast<std::uint32_t>(
                rng_.nextBounded(numArgs_))));
            break;
        }
    }

    void
    emitReturn()
    {
        if (returnsValue_) {
            b_.iload(scratch_[0]);
            b_.iret();
        } else {
            b_.ret();
        }
    }

    void
    stmtList(std::uint32_t depth)
    {
        const std::uint32_t stmts =
            1 + static_cast<std::uint32_t>(rng_.nextBounded(3));
        for (std::uint32_t i = 0; i < stmts && budget_ > 0; ++i) {
            --budget_;
            stmt(depth);
        }
    }

    void
    stmt(std::uint32_t depth)
    {
        const bool nested_ok = depth < spec_.maxDepth;
        // Loop-bias pre-roll: guarded so bias 0.0 draws nothing and the
        // RNG stream (hence every generated program) stays byte-stable.
        if (spec_.loopBias > 0 && nested_ok &&
            rng_.nextBool(spec_.loopBias)) {
            loop(depth);
            return;
        }
        switch (rng_.nextBounded(10)) {
          case 0:
          case 1:
            arith();
            break;
          case 2:
            globalStore();
            break;
          case 3:
            if (!callees_.empty()) {
                call();
                break;
            }
            arith();
            break;
          case 4:
            if (nested_ok) {
                diamond(depth);
                break;
            }
            arith();
            break;
          case 5:
          case 6:
            if (nested_ok) {
                loop(depth);
                break;
            }
            arith();
            break;
          case 7:
            if (nested_ok) {
                switchFan(depth);
                break;
            }
            globalStore();
            break;
          case 8:
            earlyReturn();
            break;
          default:
            arith();
            break;
        }
    }

    void
    arith()
    {
        static const Opcode kOps[] = {Opcode::Iadd, Opcode::Isub,
                                      Opcode::Imul, Opcode::Ixor,
                                      Opcode::Iand, Opcode::Ior};
        pushValue();
        b_.iconst(static_cast<std::int32_t>(rng_.nextRange(-5, 13)));
        b_.emit(kOps[rng_.nextBounded(std::size(kOps))]);
        b_.istore(scratch_[rng_.nextBounded(2)]);
    }

    void
    globalStore()
    {
        // Gstore pops index then value: push value first.
        pushValue();
        b_.iconst(static_cast<std::int32_t>(rng_.nextBounded(8)));
        b_.emit(Opcode::Gstore);
    }

    void
    call()
    {
        const Callee &callee =
            callees_[rng_.nextBounded(callees_.size())];
        for (std::uint32_t i = 0; i < callee.numArgs; ++i)
            pushValue();
        b_.invoke(callee.id);
        if (callee.returnsValue) {
            if (rng_.nextBool(0.7))
                b_.istore(scratch_[0]);
            else
                b_.emit(Opcode::Pop);
        }
    }

    void
    diamond(std::uint32_t depth)
    {
        static const Opcode kBranches[] = {Opcode::Ifeq, Opcode::Ifne,
                                           Opcode::Iflt, Opcode::Ifgt};
        const Label other = b_.newLabel();
        const Label end = b_.newLabel();
        pushValue();
        b_.branch(kBranches[rng_.nextBounded(std::size(kBranches))],
                  other);
        stmtList(depth + 1);
        b_.jump(end);
        b_.bind(other);
        if (rng_.nextBool(0.8))
            stmtList(depth + 1);
        b_.bind(end);
    }

    void
    loop(std::uint32_t depth)
    {
        const std::uint32_t counter = b_.newLocal();
        // Under loop bias, trip counts get irregular (1..13ish) so
        // k-windows close at varying phases; the legacy expression is
        // kept verbatim at bias 0 for byte-stable streams.
        const std::int32_t trips =
            spec_.loopBias > 0
                ? static_cast<std::int32_t>(
                      1 + rng_.nextBounded(
                              2 + static_cast<std::uint64_t>(
                                      12 * spec_.loopBias)))
                : static_cast<std::int32_t>(2 + rng_.nextBounded(5));
        const Label header = b_.newLabel();
        const Label done = b_.newLabel();

        b_.iconst(0);
        b_.istore(counter);
        b_.bind(header);
        b_.iload(counter);
        b_.iconst(trips);
        b_.branch(Opcode::IfIcmpge, done);
        stmtList(depth + 1);
        b_.iinc(counter, 1);
        if (rng_.nextBool(0.4 + 0.4 * spec_.loopBias)) {
            // Two distinct back edges into one loop header — the
            // shared-header shape that stresses header splitting.
            const Label alt = b_.newLabel();
            pushValue();
            b_.branch(Opcode::Ifeq, alt);
            b_.jump(header);
            b_.bind(alt);
            b_.jump(header);
        } else {
            b_.jump(header);
        }
        b_.bind(done);
    }

    void
    switchFan(std::uint32_t depth)
    {
        const std::size_t ncase = 3 + rng_.nextBounded(3);
        const Label end = b_.newLabel();
        const Label dflt = b_.newLabel();

        // Reusing a previous case label yields parallel CFG edges
        // (distinct successor indices, one destination block).
        std::vector<Label> unique_cases;
        std::vector<Label> cases;
        for (std::size_t i = 0; i < ncase; ++i) {
            if (!unique_cases.empty() && rng_.nextBool(0.35)) {
                cases.push_back(unique_cases[rng_.nextBounded(
                    unique_cases.size())]);
            } else {
                const Label l = b_.newLabel();
                unique_cases.push_back(l);
                cases.push_back(l);
            }
        }

        // 0..7 selector; values >= ncase exercise the default edge.
        b_.emit(Opcode::Irnd);
        b_.iconst(7);
        b_.emit(Opcode::Iand);
        b_.tableswitch(0, dflt, cases);
        for (const Label l : unique_cases) {
            b_.bind(l);
            stmtList(depth + 1);
            b_.jump(end);
        }
        b_.bind(dflt);
        if (rng_.nextBool(0.7))
            stmtList(depth + 1);
        b_.bind(end);
    }

    void
    earlyReturn()
    {
        const Label cont = b_.newLabel();
        pushValue();
        b_.branch(Opcode::Ifne, cont);
        emitReturn();
        b_.bind(cont);
    }

    MethodBuilder &b_;
    support::Rng rng_;
    std::vector<Callee> callees_;
    std::uint32_t numArgs_;
    bool returnsValue_;
    const FuzzSpec &spec_;
    std::uint32_t scratch_[2] = {0, 0};
    std::uint32_t budget_ = 0;
};

} // namespace

bytecode::Program
generateProgram(const FuzzSpec &spec)
{
    support::Rng rng(spec.seed);
    workload::ProgramBuilder pb;

    const std::uint32_t num_leaves = static_cast<std::uint32_t>(
        rng.nextBounded(spec.maxLeafMethods + 1));
    const std::uint32_t num_hot = 1 + static_cast<std::uint32_t>(
                                          rng.nextBounded(
                                              spec.maxHotMethods));

    std::vector<Callee> leaves;
    for (std::uint32_t i = 0; i < num_leaves; ++i) {
        Callee c;
        c.numArgs = static_cast<std::uint32_t>(rng.nextBounded(3));
        c.returnsValue = rng.nextBool(0.7);
        c.id = pb.declareMethod("leaf" + std::to_string(i), c.numArgs,
                                c.returnsValue);
        leaves.push_back(c);
    }

    std::vector<Callee> hots;
    for (std::uint32_t i = 0; i < num_hot; ++i) {
        Callee c;
        c.numArgs = static_cast<std::uint32_t>(rng.nextBounded(2));
        c.returnsValue = rng.nextBool(0.5);
        c.id = pb.declareMethod("hot" + std::to_string(i), c.numArgs,
                                c.returnsValue);
        hots.push_back(c);
    }
    const bytecode::MethodId main_id = pb.declareMethod("main", 0,
                                                        false);

    // Leaves: no callees, small bodies (stay inline-eligible).
    for (const Callee &c : leaves) {
        FuzzSpec leaf_spec = spec;
        leaf_spec.maxElements = std::min(spec.maxElements, 4u);
        leaf_spec.maxDepth = std::min(spec.maxDepth, 2u);
        MethodBuilder mb(pb.methodName(c.id), c.numArgs,
                         c.returnsValue);
        BodyGen gen(mb, rng.fork(), {}, c.numArgs, c.returnsValue,
                    leaf_spec);
        gen.run();
        pb.define(c.id, mb);
    }

    // Hot methods: may call leaves and earlier hot methods (the call
    // graph stays acyclic, so execution terminates).
    for (std::size_t i = 0; i < hots.size(); ++i) {
        std::vector<Callee> callees = leaves;
        callees.insert(callees.end(), hots.begin(),
                       hots.begin() + static_cast<std::ptrdiff_t>(i));
        MethodBuilder mb(pb.methodName(hots[i].id), hots[i].numArgs,
                         hots[i].returnsValue);
        BodyGen gen(mb, rng.fork(), std::move(callees),
                    hots[i].numArgs, hots[i].returnsValue, spec);
        gen.run();
        pb.define(hots[i].id, mb);
    }

    // main: a driver loop invoking every hot method each trip, hot
    // enough for the adaptive system to promote (and OSR/inline when
    // those are enabled).
    {
        MethodBuilder mb("main", 0, false);
        const std::uint32_t it = mb.newLocal();
        const Label header = mb.newLabel();
        const Label done = mb.newLabel();
        mb.iconst(0);
        mb.istore(it);
        mb.bind(header);
        mb.iload(it);
        mb.iconst(static_cast<std::int32_t>(spec.mainTrips));
        mb.branch(Opcode::IfIcmpge, done);
        for (const Callee &c : hots) {
            for (std::uint32_t a = 0; a < c.numArgs; ++a)
                mb.iload(it);
            mb.invoke(c.id);
            if (c.returnsValue)
                mb.emit(Opcode::Pop);
        }
        mb.iinc(it, 1);
        mb.jump(header);
        mb.bind(done);
        mb.ret();
        pb.define(main_id, mb);
    }

    pb.setMain(main_id);
    pb.setGlobalSize(8);
    std::vector<std::int32_t> globals(8);
    for (std::int32_t &g : globals)
        g = static_cast<std::int32_t>(rng.nextRange(-4, 12));
    pb.setInitialGlobals(std::move(globals));
    return pb.build();
}

std::uint32_t
kIterationsFromEnv(std::uint32_t fallback)
{
    const char *env = std::getenv("PEP_KITER");
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || value == 0)
        return fallback;
    return static_cast<std::uint32_t>(value);
}

} // namespace pep::testing
