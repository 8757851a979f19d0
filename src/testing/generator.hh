#ifndef PEP_TESTING_GENERATOR_HH
#define PEP_TESTING_GENERATOR_HH

/**
 * @file
 * Seed-driven program generator for the differential fuzzing harness.
 * Emits verifier-clean random programs deliberately biased toward the
 * control-flow shapes where path numbering historically goes wrong:
 * nested loops, loop headers shared by several back edges, switch fans
 * with parallel edges (distinct cases targeting one block), early
 * returns out of loops, and call chains hot enough to drive the
 * adaptive compiler through inlining and OSR.
 *
 * Generation is structured (statements compose recursively, the operand
 * stack is empty at every statement boundary), so every program passes
 * the verifier by construction, every loop is bounded by a constant
 * trip count, and the whole program is a deterministic function of the
 * seed. Branch conditions consume Irnd, so dynamic behaviour follows
 * the VM's own deterministic random stream.
 */

#include <cstdint>

#include "bytecode/method.hh"

namespace pep::testing {

/** Knobs for one generated program; everything else comes from seed. */
struct FuzzSpec
{
    std::uint64_t seed = 1;

    /** Hot methods (invoked from main's driver loop): 1..max. */
    std::uint32_t maxHotMethods = 3;

    /** Leaf methods (no calls; inline-eligible): 0..max. */
    std::uint32_t maxLeafMethods = 3;

    /** Statement budget per method body. */
    std::uint32_t maxElements = 10;

    /** Maximum structural nesting (loops / switches / diamonds). */
    std::uint32_t maxDepth = 3;

    /** Iterations of main's driver loop (controls hotness: enough
     *  timer ticks must land to promote methods to optimizing tiers). */
    std::uint32_t mainTrips = 48;

    /**
     * Loop-heaviness bias in [0, 1]: the extra probability that any
     * statement slot becomes a loop before the regular shape roll, with
     * wider (irregular) trip counts and a raised shared-header rate.
     * 0.0 draws nothing extra from the RNG, so programs are
     * byte-identical to the legacy generator — k-BLPP tests raise it to
     * get deep nesting and many cross-iteration windows per run.
     */
    double loopBias = 0.0;
};

/** Generate a verified program from the spec (deterministic). */
bytecode::Program generateProgram(const FuzzSpec &spec);

/**
 * k-BLPP window length for fuzz-style tests: the PEP_KITER environment
 * variable when set to a positive integer, else `fallback`. Only
 * pep_fuzz reads it, as its --kiter default — never golden tests or
 * corpus replay.
 */
std::uint32_t kIterationsFromEnv(std::uint32_t fallback);

} // namespace pep::testing

#endif // PEP_TESTING_GENERATOR_HH
