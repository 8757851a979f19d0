#ifndef PEP_TESTING_OBSERVABLES_HH
#define PEP_TESTING_OBSERVABLES_HH

/**
 * @file
 * The determinism contract (docs/ENGINE.md) in code: serializeRun
 * writes everything a run may observe, and two runs are identical
 * exactly when their serializations are byte-equal. Every identity
 * check compares through it — the differ's engine cross-check
 * (check 7) and cooperative rerun (threaded check 2), the engine,
 * fusion and inline-register tests, and tab_fusion's and
 * tab_concurrency's gates — so each compares the whole contract.
 */

#include <string>
#include <vector>

namespace pep::core {
class FullPathProfiler;
class PepProfiler;
}

namespace pep::opt {
class OptPipeline;
}

namespace pep::runtime {
struct CoopStats;
}

namespace pep::vm {
class Machine;
}

namespace pep::testing {

/** What a run attached to its machine; whatever is present is
 *  serialized with it. */
struct RunObservers
{
    const core::FullPathProfiler *full = nullptr;
    std::vector<const core::PepProfiler *> peps = {};
    const opt::OptPipeline *pipeline = nullptr;
    const runtime::CoopStats *coop = nullptr;
};

/**
 * Serialize a run, one record per line: the ground-truth and one-time
 * edge profiles (one line per method, so the first differing line of
 * two runs names a method); the full profiler's and each PEP's
 * per-version path tables in path-number order; each PEP's continuous
 * edge profile and PepStats; the opt pipeline's Stats; the cooperative
 * scheduler's CoopStats; every MachineStats counter except
 * methodsDecoded, which describes the threaded engine's translation
 * cache and differs across engines by design; and the simulated clock.
 */
std::string serializeRun(const vm::Machine &machine,
                         const RunObservers &observers = {});

} // namespace pep::testing

#endif // PEP_TESTING_OBSERVABLES_HH
