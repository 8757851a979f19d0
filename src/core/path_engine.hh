#ifndef PEP_CORE_PATH_ENGINE_HH
#define PEP_CORE_PATH_ENGINE_HH

/**
 * @file
 * Shared machinery for every path-profiling client: builds per-version
 * instrumentation state when the optimizing compiler runs (through
 * profile::PlanState), and executes the path-register semantics.
 * Subclasses decide what happens when a path completes (store always =
 * BLPP/perfect, through pathCompleted; store at samples = PEP, which
 * takes completions as stores into a per-thread slot and reads it at
 * sampling yieldpoints; store for free = ground truth).
 *
 * The register runs in one of two places (docs/ENGINE.md, "Inline path
 * registers"). Under the threaded engine the first path engine
 * attached to a machine runs inline: the frames carry the registers,
 * the engine translates each version's template stream against the
 * plan this class hands it (planFor) and executes that plan's tables,
 * and this class is entered only at OSR, at armed yieldpoints and —
 * unless it stores completions — where a path completes. Otherwise —
 * the switch engine, a second path engine, or one wrapped in another
 * hook — it is driven by the ExecutionHooks events and keeps one
 * PathRegister per frame itself. Both run vm::PathRegisterHooks' code,
 * k-window folding and completion included, so they cannot disagree.
 *
 * Matching the paper (Section 4.3), instrumentation is added only by
 * the optimizing compiler: frames running baseline code carry no state
 * and generate no path events.
 */

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "profile/kpath.hh"
#include "profile/path_profile.hh"
#include "profile/plan_state.hh"
#include "vm/hooks.hh"
#include "vm/machine.hh"

namespace pep::core {

/**
 * Immutable per-(method, compiled-version) profiling state: the plan
 * profile::PlanState builds, plus what the engine adds on top.
 */
struct MethodProfilingState : profile::PlanState
{
    using PlanState::PlanState;

    bytecode::MethodId method = 0;
    std::uint32_t version = 0;

    /** The compiled version this state instruments (owned by the
     *  Machine; nullptr for states built directly in tests). Carries
     *  the inlined body and its block-origin map when inlining is on. */
    const vm::CompiledMethod *compiled = nullptr;

    /** k-iteration id space over the plan's path numbers (docs/
     *  KBLPP.md). Degenerate (kEffective()==1) unless the engine was
     *  built with k_iterations > 1 and the plan is enabled. */
    profile::KPathScheme kpath;
};

/** Build the state for one method (cfg must outlive the state). */
std::unique_ptr<MethodProfilingState>
buildProfilingState(const bytecode::MethodCfg &method_cfg,
                    bytecode::MethodId method, std::uint32_t version,
                    profile::DagMode mode,
                    profile::NumberingScheme scheme,
                    const profile::MethodEdgeProfile *freq_profile,
                    profile::PlacementKind placement =
                        profile::PlacementKind::Direct,
                    std::uint32_t k_iterations = 1);

/**
 * One compiled version's profiling state plus the path frequencies
 * collected against it. Path numbers are only meaningful relative to a
 * specific numbering, so profiles are kept per version; records cache
 * their version-independent CFG-edge expansion, which metrics use to
 * merge and compare profiles across versions and numbering schemes.
 */
struct VersionProfile : vm::PathPlan
{
    std::unique_ptr<MethodProfilingState> state;
    profile::MethodPathProfile paths;
};

/** Key: (method, compiled version number). */
using VersionKey = std::pair<bytecode::MethodId, std::uint32_t>;

/**
 * Base class executing path-register instrumentation. Implements
 * PathRegisterHooks and CompileObserver; attach to a Machine with both
 * addHooks() and addCompileObserver().
 */
class PathEngine : public vm::PathRegisterHooks, public vm::CompileObserver
{
  public:
    /**
     * @param machine    the VM (used for cost charging and CFG access)
     * @param mode       P-DAG construction (PEP uses HeaderSplit)
     * @param scheme     numbering scheme
     * @param charge_costs false for zero-overhead ground-truth use
     * @param placement  increment placement strategy
     * @param k_iterations k-BLPP window length (1 = classic BLPP;
     *                   per-version kEffective may be lower when the
     *                   composite id space would overflow)
     */
    PathEngine(vm::Machine &machine, profile::DagMode mode,
               profile::NumberingScheme scheme, bool charge_costs,
               profile::PlacementKind placement =
                   profile::PlacementKind::Direct,
               std::uint32_t k_iterations = 1);

    // CompileObserver
    void onCompile(bytecode::MethodId method,
                   const vm::CompiledMethod &version) override;

    // ExecutionHooks: the hook-driven register. Final, because the
    // inline path never calls them — an override would be bypassed.
    void onMethodEntry(const vm::FrameView &frame) final;
    void onMethodExit(const vm::FrameView &frame) final;
    void onEdge(const vm::FrameView &frame, cfg::EdgeRef edge) final;
    void onLoopHeader(const vm::FrameView &frame,
                      cfg::BlockId block) final;
    void onOsr(const vm::FrameView &frame, cfg::BlockId header) final;

    // PathRegisterHooks: called by both registers.
    vm::PathPlan *planFor(const vm::CompiledMethod &version) final;
    void onPathCompleted(vm::PathPlan &plan, std::uint64_t id,
                         std::uint32_t thread) final;
    void frameReplaced(vm::PathRegister &reg, vm::PathPlan *plan,
                       cfg::BlockId header, std::uint32_t thread) final;

    /** All versions this engine instrumented, with their profiles,
     *  ordered by (method, version). The pointers stay valid until the
     *  engine is destroyed; profiles are mutable because metrics expand
     *  path records lazily. */
    std::vector<std::pair<VersionKey, VersionProfile *>>
    versionProfiles();
    std::vector<std::pair<VersionKey, const VersionProfile *>>
    versionProfiles() const;

    /** Drop all collected path frequencies (instrumentation state is
     *  kept). */
    void clearPathProfiles();

    /** Number of methods whose numbering overflowed. */
    std::size_t overflowCount() const { return overflowCount_; }

    /** The requested k-BLPP window length this engine was built with. */
    std::uint32_t kIterations() const { return kIterations_; }

    /**
     * Fault injection (testing/differ.hh InjectKind::TruncatedWindow):
     * silently discard partial windows at flush points (method exit,
     * OSR) instead of emitting the short k-path. The exact oracle keeps
     * counting those windows, so the differ's totals/segment checks
     * must catch the discrepancy. Meaningless when kEffective == 1
     * everywhere (there are no partial windows to drop).
     */
    void
    setTruncateWindowInjection(bool enabled)
    {
        truncateWindowInjection_ = enabled;
    }

    /**
     * Fault injection (testing/differ.hh InjectKind::StaleOsrPlan): OSR
     * leaves the frame's register bound to its old version's plan and
     * value — as if the engine skipped the rebind, the step an inline
     * register must never miss. OSR into an uninstrumented or
     * synthesized (inlined, cloned) version still stops profiling the
     * frame: old tables would not even fit a synthesized CFG. The exact
     * oracle charges the frame's later segments to the new version, so
     * the differ's segment checks must catch it.
     */
    void
    setStaleOsrPlanInjection(bool enabled)
    {
        staleOsrPlanInjection_ = enabled;
    }

  protected:
    /**
     * A path completed with the given number (a k-window id for
     * k > 1), against `vp.state`'s numbering. Fired at loop headers
     * and method exits (HeaderSplit mode) or back edges and exits
     * (BackEdgeTruncate mode), and at OSR for a flushed k-window.
     * `thread` is the virtual mutator thread whose path register
     * completed. Every profiler that stores each path overrides it;
     * one that storeCompletions() never receives it (the default
     * panics).
     */
    virtual void pathCompleted(VersionProfile &vp,
                               std::uint64_t path_number,
                               std::uint32_t thread);

    /**
     * Edge-frequency profile used by Smart numbering when compiling
     * `method`; default is the machine's one-time baseline profile.
     * PEP overrides this to use its own continuous profile once it has
     * one (profile-guided profiling, Section 3.4).
     */
    virtual const profile::MethodEdgeProfile *
    freqProfileFor(bytecode::MethodId method);

    /** Charge cycles if this engine charges costs. */
    void
    charge(std::uint64_t cycles)
    {
        if (chargeCosts_)
            vm_.chargeCycles(cycles);
    }

    vm::Machine &vm_;
    const profile::DagMode mode_;
    const profile::NumberingScheme scheme_;
    const bool chargeCosts_;
    const profile::PlacementKind placement_;

  private:
    /** The hook-driven register of `frame` (its thread's top). */
    vm::PathRegister &
    topRegister(const vm::FrameView &frame)
    {
        return stacks_[frame.thread].back();
    }

    /** Version with an enabled-or-disabled plan, nullptr if the engine
     *  never saw (method, version) compile. */
    VersionProfile *findVersion(bytecode::MethodId method,
                                std::uint32_t version) const;

    /** The register stack of one virtual mutator thread, grown on
     *  first use. Single-threaded machines only ever touch stack 0. */
    std::vector<vm::PathRegister> &stackFor(std::uint32_t thread);

    /** Storage indexed [method][version]; baseline compiles consume
     *  version numbers without reaching the engine, so gaps are null. */
    std::vector<std::vector<std::unique_ptr<VersionProfile>>> versions_;

    /** The hook-driven registers, one stack per virtual thread,
     *  indexed by FrameView::thread (unused while the engine runs
     *  inline). */
    std::vector<std::vector<vm::PathRegister>> stacks_;
    std::size_t overflowCount_ = 0;
    const std::uint32_t kIterations_;
    bool staleOsrPlanInjection_ = false;
};

} // namespace pep::core

#endif // PEP_CORE_PATH_ENGINE_HH
