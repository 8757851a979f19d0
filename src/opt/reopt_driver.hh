#ifndef PEP_OPT_REOPT_DRIVER_HH
#define PEP_OPT_REOPT_DRIVER_HH

/**
 * @file
 * Online reoptimization driver (docs/OPT.md; the paper's Figures
 * 10-11 live). Watches a windowed profile (runtime/profile_window.hh)
 * and, when the hot direction of a method's branches shifts by more
 * than a threshold of the method's branch mass since the layout it
 * last applied, recompiles the method through Machine::compileNow() —
 * which re-runs the whole pass pipeline, so the new version picks up
 * chain layout and cloning for the *current* phase. Every
 * reoptimization is an ordinary compile that installs a new version;
 * installed versions are never edited.
 *
 * Not thread-safe: poll() must run on the machine's thread, between
 * iterations (the windowed profile is typically fed by a transport
 * drain on the same thread; see docs/RUNTIME.md).
 */

#include <cstdint>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "runtime/profile_window.hh"
#include "vm/machine.hh"

namespace pep::opt {

/** Recompile when more than this fraction of a method's branch mass
 *  changed its hot direction since the last applied layout. */
constexpr double kReoptShiftThreshold = 0.25;

/** Ignore methods whose windowed branch mass is below this. */
constexpr double kReoptMinMass = 1.0;

/** Minimum window advances between recompiles of one method. */
constexpr std::uint64_t kReoptMinAdvancesBetween = 1;

/** Drives recompilation from a windowed profile. */
class ReoptDriver
{
  public:
    struct Stats
    {
        std::uint64_t polls = 0;

        /** Recompiles triggered by a detected direction shift (the
         *  first, snapshot-establishing recompile is not a shift). */
        std::uint64_t phaseShifts = 0;
        std::uint64_t recompiles = 0;
    };

    /** Both the machine and the window must outlive the driver. */
    ReoptDriver(vm::Machine &machine,
                const runtime::WindowedProfile &window);

    /**
     * Check every optimized method against the window and recompile
     * the ones whose phase changed (plus any hot method seen for the
     * first time, to apply its initial profile-guided layout).
     * Returns the number of methods recompiled. No-op until the
     * window advances past the previous poll.
     */
    std::size_t poll();

    const Stats &stats() const { return stats_; }

  private:
    /** Hot direction of each branch block at the last applied
     *  layout. */
    struct MethodSnapshot
    {
        std::vector<std::int32_t> hotDir;
        bool valid = false;
        std::uint64_t atAdvance = 0;
    };

    vm::Machine &machine_;
    const runtime::WindowedProfile &window_;
    std::vector<MethodSnapshot> snapshots_;
    std::uint64_t lastPollAdvance_ = ~0ull;
    Stats stats_;
};

} // namespace pep::opt

#endif // PEP_OPT_REOPT_DRIVER_HH
