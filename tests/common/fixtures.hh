#ifndef PEP_TESTS_COMMON_FIXTURES_HH
#define PEP_TESTS_COMMON_FIXTURES_HH

/**
 * @file
 * Shared test helpers: canned assembly programs, a random-CFG method
 * generator for property tests, an always-sample controller, the
 * canonical translation the stream proof checks, a run that parks
 * at every yieldpoint, and gtest's printer for edge-profile sets.
 */

#include <cstdint>
#include <ostream>
#include <string>

#include "bytecode/assembler.hh"
#include "bytecode/method.hh"
#include "core/sampling.hh"
#include "profile/edge_profile.hh"
#include "support/rng.hh"
#include "vm/compiled_method.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/machine.hh"
#include "workload/program_builder.hh"

namespace pep::test {

/** A single loop counting a local down from 10, one diamond inside. */
inline bytecode::Program
simpleLoopProgram()
{
    return bytecode::assembleOrDie(R"(
.globals 4
.method main 0 2
    iconst 10
    istore 0
loop:
    iload 0
    ifle done
    irnd
    iconst 1
    iand
    ifeq skip
    iinc 1 1
skip:
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
}

/** The paper's Figure 1 routine: if-else diamond inside a loop. */
inline bytecode::Program
figure1Program()
{
    // CFG shape: A -> B (loop header); B -> C|D; C/D -> E; E -> B | F
    return bytecode::assembleOrDie(R"(
.globals 1
.method main 0 2
    iconst 6
    istore 0
header:
    iload 0
    ifle exit
    irnd
    iconst 1
    iand
    ifeq right
    iinc 1 2
    goto join
right:
    iinc 1 5
join:
    iinc 0 -1
    goto header
exit:
    return
.end
.main main
)");
}

/** Calls, value returns, and a switch. */
inline bytecode::Program
callSwitchProgram()
{
    return bytecode::assembleOrDie(R"(
.globals 4
.method pick 0 1 returns
    irnd
    iconst 3
    iand
    ireturn
.end
.method main 0 3
    iconst 12
    istore 0
loop:
    iload 0
    ifle done
    invoke pick
    tableswitch 0 dflt c0 c1 c2
c0: iinc 1 1
    goto next
c1: iinc 1 2
    goto next
c2: iinc 1 3
    goto next
dflt:
    iinc 1 4
next:
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
}

/** A loop around an eleven-way switch: successor indices past the
 *  eight a byte of path-work bits could hold. Long enough for main to
 *  tier up under a short tick. */
inline bytecode::Program
wideSwitchProgram()
{
    return bytecode::assembleOrDie(R"(
.globals 1
.method main 0 2
    iconst 3000
    istore 0
loop:
    iload 0
    ifle done
    irnd
    iconst 15
    iand
    tableswitch 0 dflt c0 c1 c2 c3 c4 c5 c6 c7 c8 c9
c0: iinc 1 1
    goto next
c1: iinc 1 2
    goto next
c2: iinc 1 3
    goto next
c3: iinc 1 4
    goto next
c4: iinc 1 5
    goto next
c5: iinc 1 6
    goto next
c6: iinc 1 7
    goto next
c7: iinc 1 8
    goto next
c8: iinc 1 9
    goto next
c9: iinc 1 10
    goto next
dflt:
    iinc 1 11
next:
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
}

/**
 * Generate a random, structured (hence reducible) method for property
 * tests: nested sequences of diamonds, switches, and loops. All branch
 * conditions consume Irnd so every path is dynamically reachable.
 */
bytecode::Method randomStructuredMethod(support::Rng &rng,
                                        const std::string &name,
                                        std::uint32_t max_elements);

/** A program wrapping one random method as main. */
bytecode::Program randomStructuredProgram(std::uint64_t seed,
                                          std::uint32_t max_elements);

/** Samples at every opportunity. */
class AlwaysSample final : public core::SamplingController
{
  public:
    core::SampleAction
    onOpportunity(bool) override
    {
        return core::SampleAction::Sample;
    }
    void reset() override {}
    std::string name() const override { return "always"; }
};

/** One method translated under `fuse` against the canonical version
 *  the static tools prove (analysis::canonicalVersion): full-opt
 *  costs, no layout information. */
struct Translated
{
    vm::MethodInfo info;
    vm::CompiledMethod cm;
    vm::DecodedMethod decoded;

    explicit Translated(const bytecode::Method &method,
                        vm::FuseOptions fuse = {});
};

/** A run whose scheduler requests a context switch at every
 *  yieldpoint, so frames park at every opportunity the contract
 *  allows — including with a caller sitting mid-block at an Invoke
 *  while its callee's entry yieldpoint fires. */
struct ParkedRun
{
    /** testing::serializeRun of the finished machine. */
    std::string state;
    std::uint64_t parks = 0;
};

/** Run `p`'s main to completion that way on a fast-ticking machine.
 *  `fuse` defaults to the environment's selection (PEP_FUSE), as
 *  SimParams' does. */
ParkedRun runWithConstantParking(const bytecode::Program &p,
                                 vm::EngineKind kind,
                                 vm::FuseOptions fuse =
                                     vm::defaultFuseOptions());

} // namespace pep::test

namespace pep::profile {

/** gtest's printer for EXPECT_EQ on edge-profile sets: one line per
 *  method, as testing::serializeRun writes them. */
void PrintTo(const EdgeProfileSet &set, std::ostream *os);

} // namespace pep::profile

#endif // PEP_TESTS_COMMON_FIXTURES_HH
