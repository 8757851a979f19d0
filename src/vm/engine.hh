#ifndef PEP_VM_ENGINE_HH
#define PEP_VM_ENGINE_HH

/**
 * @file
 * Execution-engine selection. The machine can run bytecode through two
 * backends with identical observable behaviour (profiles, samples,
 * simulated cycles — docs/ENGINE.md):
 *
 *  - Switch: the classic per-instruction decode + switch dispatch
 *    (src/vm/interpreter.cc, Interpreter::loop).
 *  - Threaded: per-version pre-decoded template streams dispatched via
 *    computed goto (Interpreter::loopThreaded, decoded_method.hh).
 *
 * The default comes from the PEP_ENGINE environment variable
 * ("switch" | "threaded"; unset means switch), so the whole test suite
 * can be swept under either engine without recompiling. Tests and
 * benchmarks pin SimParams::engine explicitly instead.
 */

#include <cstdint>
#include <string_view>

namespace pep::vm {

enum class EngineKind : std::uint8_t
{
    Switch,
    Threaded,
};

/** Human-readable engine name ("switch" / "threaded"). */
const char *engineKindName(EngineKind kind);

/** Parse an engine name; returns false on unknown input. */
bool parseEngineKind(std::string_view text, EngineKind &out);

/**
 * Engine selected by the PEP_ENGINE environment variable, read once
 * per process; Switch when unset or empty. An unrecognized value is a
 * fatal error (a CI matrix typo must fail loudly, not silently fall
 * back to the engine it meant to avoid).
 */
EngineKind defaultEngineKind();

/**
 * Template-fusion selection for the threaded engine (docs/ENGINE.md).
 * `pairs` fuses common opcode pairs/triples into superinstruction
 * templates with burned-in operands; `traces` straightens runs of
 * predicted-fall-through blocks into hot-trace segments with the
 * untaken checks hoisted into guarded exits and the segment accounting
 * batched into one add per trace. Both are translation-time choices:
 * the switch engine ignores them, and every observable stays
 * byte-identical across the whole PEP_ENGINE x PEP_FUSE matrix.
 */
struct FuseOptions
{
    bool pairs = false;
    bool traces = false;
};

inline bool
operator==(const FuseOptions &a, const FuseOptions &b)
{
    return a.pairs == b.pairs && a.traces == b.traces;
}

/** Human-readable fusion selection ("none" / "pairs" / "traces" /
 *  "pairs,traces"). */
const char *fuseOptionsName(const FuseOptions &fuse);

/** Parse a comma-separated fusion selection ("none", "pairs",
 *  "traces", "pairs,traces"); returns false on an unknown token. */
bool parseFuseOptions(std::string_view text, FuseOptions &out);

/**
 * Fusion selected by the PEP_FUSE environment variable, read once per
 * process; none when unset or empty. An unrecognized value is a fatal
 * error, exactly like PEP_ENGINE.
 */
FuseOptions defaultFuseOptions();

} // namespace pep::vm

#endif // PEP_VM_ENGINE_HH
