#ifndef PEP_VM_COMPILED_METHOD_HH
#define PEP_VM_COMPILED_METHOD_HH

/**
 * @file
 * A compiled version of a method. The simulator does not generate
 * native code; a "compiled version" is the set of properties that
 * affect simulated cost and profiling behaviour: the tier (which sets
 * the speed multiplier), whether baseline edge instrumentation is
 * present, and the branch layout chosen from the edge profile available
 * at compile time.
 */

#include <cstdint>
#include <vector>

#include "bytecode/instr.hh"
#include "cfg/graph.hh"

#include <memory>

namespace pep::vm {

struct InlinedBody;

/** Compiler tiers (Jikes RVM: baseline + optimizing levels). */
enum class OptLevel : std::uint8_t
{
    Baseline,
    Opt1,
    Opt2,
};

/** Human-readable tier name. */
const char *optLevelName(OptLevel level);

/** One compiled version of one method. */
class CompiledMethod
{
  public:
    CompiledMethod();
    ~CompiledMethod();
    CompiledMethod(CompiledMethod &&) noexcept;
    CompiledMethod &operator=(CompiledMethod &&) noexcept;

    bytecode::MethodId method = 0;

    /** Monotonic per-method version number (0 = first compile). */
    std::uint32_t version = 0;

    OptLevel level = OptLevel::Baseline;

    /** Cycle multiplier applied to base instruction costs. */
    double speedMultiplier = 1.0;

    /** Baseline tier collects the one-time edge profile. */
    bool baselineEdgeInstr = false;

    /**
     * Branch layout per block: 1 = laid out for taken, 0 = laid out for
     * fall-through, -1 = no information (treated as fall-through).
     * For Switch blocks the value is the successor index predicted hot,
     * or -1. Indexed by CFG BlockId.
     */
    std::vector<std::int16_t> branchLayout;

    /**
     * Per-opcode cycle cost with the tier's speed multiplier applied;
     * precomputed at compile time so the interpreter's hot loop is a
     * table lookup.
     */
    std::vector<std::uint32_t> scaledCost;

    /**
     * Synthesized body with leaf calls inlined (optimizing tiers with
     * SimParams::enableInlining; nullptr otherwise) or with a hot path
     * cloned (src/opt/path_clone.hh). When present, the frame executes
     * this code and all block ids (branchLayout, instrumentation
     * plans) refer to its CFG; bytecode-level branch counters are
     * reached through its BlockOrigin map.
     */
    std::unique_ptr<InlinedBody> inlinedBody;

    /**
     * Block order chosen by the chain-layout pass (src/opt/), empty
     * when no layout pass ran. Pure metadata for tests and tools:
     * cycle charging reads branchLayout, never this.
     */
    std::vector<cfg::BlockId> layoutOrder;

    /** True when the path-cloning pass synthesized this version's
     *  inlinedBody (its origin records are audited by plan-checker
     *  check 11). */
    bool cloneApplied = false;

    /** Layout choice for a block (-1 when unknown). */
    std::int16_t
    layoutFor(cfg::BlockId block) const
    {
        return block < branchLayout.size() ? branchLayout[block] : -1;
    }
};

} // namespace pep::vm

#endif // PEP_VM_COMPILED_METHOD_HH
