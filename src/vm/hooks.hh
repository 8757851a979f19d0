#ifndef PEP_VM_HOOKS_HH
#define PEP_VM_HOOKS_HH

/**
 * @file
 * Interfaces between the interpreter and the profiling layer. The
 * interpreter fires control-flow and yieldpoint events; profilers (in
 * src/core) implement ExecutionHooks and keep their own per-frame state
 * keyed by call depth. Multiple hooks can be attached to one machine —
 * e.g., PEP plus a zero-cost ground-truth recorder for accuracy
 * evaluation.
 *
 * Path profilers are the exception to "hooks keep their own state"
 * when the threaded engine runs them (docs/ENGINE.md, "Inline path
 * registers"): the frame carries the path register, the engine
 * executes the register code defined once in PathRegisterHooks — only
 * on the edges whose template carries a path-work bit — and the
 * profiler is entered at OSR, at ticks, and where a path completes
 * unless it samples completions (PEP does: the register writes the
 * thread's PathCompletion slot instead, and the sampling countdown in
 * PathRegisterHooks calls in only to record a sample or to ask for
 * the next burst).
 */

#include <cstdint>
#include <vector>

#include "bytecode/instr.hh"
#include "cfg/graph.hh"
#include "profile/instr_plan.hh"
#include "profile/kpath.hh"

namespace pep::vm {

class CompiledMethod;

/** Where a yieldpoint sits (Jikes RVM places them at exactly these). */
enum class YieldpointKind : std::uint8_t
{
    MethodEntry,
    LoopHeader,
    MethodExit,
    BackEdge, ///< only with SimParams::yieldpointsOnBackEdges
};

/** A frame as seen by hooks. */
struct FrameView
{
    bytecode::MethodId method = 0;

    /** Compiled version executing in this frame. */
    const CompiledMethod *version = nullptr;

    /** Call depth (0 = main); hooks key per-frame state off this. */
    std::uint32_t depth = 0;

    /** Virtual mutator thread executing the frame (0 when the machine
     *  runs single-threaded). Hooks that keep per-frame state must key
     *  it by (thread, depth), not depth alone. */
    std::uint32_t thread = 0;
};

/**
 * Scheduler hook point (src/runtime's cooperative scheduler implements
 * this). The interpreter consults it at every yieldpoint — the only
 * places Jikes RVM's quasi-preemptive scheduler switches threads. A
 * `true` return requests a context switch: the interpreter finishes the
 * current instruction and returns control from Interpreter::resume().
 */
class ThreadScheduler
{
  public:
    virtual ~ThreadScheduler() = default;

    /**
     * A yieldpoint executed on `thread`. `tick_fired` mirrors the timer
     * interrupt's thread-switch flag; schedulers normally switch
     * exactly when it is set.
     */
    virtual bool onYieldpoint(std::uint32_t thread, YieldpointKind kind,
                              bool tick_fired) = 0;
};

/** Receiver of interpreter events. All events refer to the top frame. */
class ExecutionHooks
{
  public:
    virtual ~ExecutionHooks() = default;

    /** Frame pushed; fired before any code of the method runs. */
    virtual void onMethodEntry(const FrameView &frame) { (void)frame; }

    /** Method returning; fired after the return edge's onEdge. The
     *  frame is popped after this event. */
    virtual void onMethodExit(const FrameView &frame) { (void)frame; }

    /** A CFG edge of the frame's method was taken (includes the
     *  entry->firstBlock edge and returnBlock->exit edges). */
    virtual void
    onEdge(const FrameView &frame, cfg::EdgeRef edge)
    {
        (void)frame;
        (void)edge;
    }

    /**
     * Same event with the edge's dense flat id (MethodCfg::flatEdgeId,
     * the numbering every InstrumentationPlan's edge table uses)
     * precomputed by the threaded engine's templates. The default
     * forwards to onEdge. Overriders MUST behave identically to their
     * onEdge — the engines' byte-identity contract depends on it. No
     * profiler in src/ overrides it any more: the one that dispatched
     * on flat tables, the path engine, now runs inline.
     */
    virtual void
    onEdgeFast(const FrameView &frame, cfg::EdgeRef edge,
               std::uint32_t flat_id)
    {
        (void)flat_id;
        onEdge(frame, edge);
    }

    /** Control entered a loop-header block (fired after the incoming
     *  edge's onEdge, before the header yieldpoint). */
    virtual void
    onLoopHeader(const FrameView &frame, cfg::BlockId block)
    {
        (void)frame;
        (void)block;
    }

    /**
     * A yieldpoint executed. `tick_fired` is true if a timer tick
     * occurred since the previous yieldpoint (the interrupt handler set
     * the thread-switch flag). Sampling controllers keep their own
     * multi-sample state across yieldpoints.
     */
    virtual void
    onYieldpoint(const FrameView &frame, YieldpointKind kind,
                 bool tick_fired)
    {
        (void)frame;
        (void)kind;
        (void)tick_fired;
    }

    /**
     * On-stack replacement: the top frame switched to a freshly
     * compiled version at a loop-header yieldpoint (fired after the
     * header's onLoopHeader/onYieldpoint, with frame.version already
     * the new version). Path profilers rebind their per-frame state
     * here; header splitting makes this safe — the old version's path
     * just ended at this header, and the new path begins with the new
     * plan's restart value.
     */
    virtual void
    onOsr(const FrameView &frame, cfg::BlockId header)
    {
        (void)frame;
        (void)header;
    }
};

/**
 * The instrumentation one compiled version's frames execute: pointers
 * into the tables of the InstrumentationPlan a path profiler built for
 * it, into the flat edge numbering of the CFG the plan indexes by, and
 * to the version's k-iteration id space. The profiler owns it
 * (core::VersionProfile derives from it), and it lives as long as the
 * profiler.
 */
struct PathPlan
{
    const profile::EdgeAction *edges = nullptr;  ///< flatEdgeActions
    const std::uint32_t *edgeBase = nullptr;     ///< MethodCfg::edgeBase
    const profile::HeaderAction *headers = nullptr;
    const profile::KPathScheme *kpath = nullptr;
};

/** True when takeEdge on an edge with this action does anything: the
 *  threaded engine translates edges without register work (the hot
 *  edges of smart numbering) into templates that skip the register. */
inline bool
edgeDoesPathWork(const profile::EdgeAction &action)
{
    return action.increment != 0 || action.endsPath;
}

/**
 * One frame's path register: r, the plan of the version the frame
 * runs (null when that version carries no instrumentation — the frame
 * then generates no path events), and the k-BLPP window of segments
 * not yet folded into a path id. Under the threaded engine it lives in
 * the interpreter's Frame; a path profiler driven through hooks keeps
 * one per frame itself. Either owner runs it through the same
 * PathRegisterHooks functions.
 */
struct PathRegister
{
    PathPlan *plan = nullptr;
    std::uint64_t value = 0;
    profile::KPathWindow window;
};

/**
 * The latest path one virtual thread completed, as a profiler that
 * stores paths only at samples receives it: the register writes it in
 * place of a call.
 */
struct PathCompletion
{
    PathPlan *plan = nullptr; ///< null: none since the slot was cleared
    std::uint64_t number = 0; ///< path number; k-window id for k > 1

    /** The thread's Machine::samplingOpportunityCounts entry when it
     *  was stored: the completion is sampleable only while the count
     *  still reads this. */
    std::uint64_t opportunity = 0;
};

/**
 * A run of sampling opportunities as a sampling controller hands it
 * out: the handler strides over the first `strides` (it runs but takes
 * no sample), then samples the next `samples`. A burst with no samples
 * leaves every opportunity idle until the next tick.
 */
struct SampleBurst
{
    std::uint64_t strides = 0;
    std::uint64_t samples = 0;
};

/** The counts a sampling profiler keeps (core::PepStats' fields),
 *  which the register and the sampling countdown bump in place. */
struct SampleCounters
{
    std::uint64_t *completed = nullptr; ///< paths completed
    std::uint64_t *strides = nullptr;   ///< opportunities strided over
    std::uint64_t *taken = nullptr;     ///< samples taken
    std::uint64_t *recorded = nullptr;  ///< samples that found a path
};

/**
 * A path profiler (core::PathEngine) as the engine sees it. Under
 * EngineKind::Threaded, Machine::addHooks adopts the first one attached
 * as the machine's inline path profiler: the interpreter executes the
 * register code below from each frame's PathRegister (r = 0 at push,
 * flat edge actions at the edge templates whose path-work bit is set,
 * header actions at header transfers, the exit path at return) and the
 * sampling countdown at every other sampling opportunity, and calls in
 * only at OSR, at the yieldpoints where a tick fired or tickHeld(), and
 * — unless it samples completions — where a path completes. It then
 * receives no other ExecutionHooks event. Under the switch engine —
 * the reference — and for every further path profiler it is an
 * ordinary hook that runs the same functions from registers of its
 * own; the engines' byte-identity contract (differ check 7) covers
 * both.
 *
 * Where a path ends — at a header, a truncated back edge, frame exit
 * or a window flush — the register folds it into the frame's k-window
 * and, when a window closes, completes it: by a store into the
 * thread's PathCompletion slot for a profiler that sampleCompletions()
 * (PEP reads the slot only at samples), by onPathCompleted otherwise.
 *
 * Such a sampling profiler's per-opportunity state is one countdown,
 * owned here and run by sampleOpportunity: strides left, then samples
 * left. The profiler arms it with startBurst when a tick reaches a
 * sampling opportunity (from its onYieldpoint, which the engine calls
 * at every tick and wherever tickHeld()); onBurstEnd arms the next
 * burst when one runs out. No one else keeps a copy of it.
 */
class PathRegisterHooks : public ExecutionHooks
{
  public:
    // The machine holds the address, and sampleCompletions() points
    // into the derived object.
    PathRegisterHooks(const PathRegisterHooks &) = delete;
    PathRegisterHooks &operator=(const PathRegisterHooks &) = delete;

    /** The plan frames of `version` execute, or nullptr when this
     *  profiler did not instrument it. A pure function of the
     *  version; the threaded engine asks once per translation. */
    virtual PathPlan *planFor(const CompiledMethod &version) = 0;

    /** A path completed in a frame bound to `plan`: `id` is its number
     *  (r + endAdd at a header or truncated back edge, r at exit), or
     *  for k > 1 the id of the k-window it closed. A profiler that
     *  sampleCompletions() never receives it. */
    virtual void onPathCompleted(PathPlan &plan, std::uint64_t id,
                                 std::uint32_t thread) = 0;

    /** OSR switched the frame to a version whose plan is `plan`, at
     *  loop header `header` of that version's CFG. */
    virtual void frameReplaced(PathRegister &reg, PathPlan *plan,
                               cfg::BlockId header,
                               std::uint32_t thread) = 0;

    /** A sample found the path `id`, completed in a frame bound to
     *  `plan`, still sampleable: record it. Only a profiler that
     *  starts bursts receives it. */
    virtual void
    onPathSampled(PathPlan &plan, std::uint64_t id)
    {
        (void)plan;
        (void)id;
    }

    /** The countdown took its burst's last sample: the next burst, or
     *  an empty one to idle until the next tick. */
    virtual SampleBurst onBurstEnd() { return {}; }

    /** Frame push: bind `plan` and r = 0. Returns the cycles the
     *  register operations cost (the callers charge them). */
    std::uint32_t
    enterFrame(PathRegister &reg, PathPlan *plan) const
    {
        reg = PathRegister{};
        reg.plan = plan;
        return plan ? resetCost_ : 0;
    }

    /** An edge with dense id `flat_id` of an instrumented frame: r += v,
     *  or the count/restart pair of a truncated back edge. Changes
     *  nothing and costs 0 unless edgeDoesPathWork. */
    std::uint32_t
    takeEdge(PathRegister &reg, std::uint32_t flat_id, std::uint32_t thread)
    {
        const profile::EdgeAction &action = reg.plan->edges[flat_id];
        if (action.endsPath)
            return endSegment(reg, action.endAdd, action.restart, thread);
        if (action.increment == 0)
            return 0;
        reg.value += action.increment;
        return addCost_;
    }

    /** Control entered loop header `block` of an instrumented frame. */
    std::uint32_t
    enterHeader(PathRegister &reg, cfg::BlockId block, std::uint32_t thread)
    {
        const profile::HeaderAction &action = reg.plan->headers[block];
        if (!action.endsPath)
            return 0;
        return endSegment(reg, action.endAdd, action.restart, thread);
    }

    /** An instrumented frame returns, after its return edge: r numbers
     *  the path it ends, and a partial k-window is flushed as a short
     *  k-path (a frame exits once, so its exit path is always the last
     *  digit of a window). */
    void
    exitFrame(PathRegister &reg, std::uint32_t thread)
    {
        completeSegment(reg, reg.value, thread);
        flushWindow(reg, thread);
    }

    /** True while a tick waits for `thread`'s next sampling
     *  opportunity: the engine enters onYieldpoint there instead of
     *  running sampleOpportunity. */
    bool
    tickHeld(std::uint32_t thread) const
    {
        return ticksHeld_ != 0 && thread < threads_.size() &&
               threads_[thread].tickHeld;
    }

    /**
     * One step of the countdown at a sampling opportunity (a
     * loop-header, method-exit or back-edge yieldpoint) of `thread`
     * that no tick reached. A stride counts; a sample counts and, when
     * the thread's latest completion is still sampleable (no
     * opportunity of its thread since it completed), counts as
     * recorded and goes to onPathSampled; a burst's last sample asks
     * onBurstEnd for the next one. Returns the handler's cycles (the
     * callers charge them): 0 at an idle opportunity, which changes
     * nothing.
     */
    std::uint32_t
    sampleOpportunity(std::uint32_t thread)
    {
        if (countdown_.samples == 0)
            return 0;
        if (countdown_.strides != 0) {
            --countdown_.strides;
            ++*counters_.strides;
            return strideCost_;
        }
        ++*counters_.taken;
        if (thread < threads_.size()) {
            // A thread that completed a path has run an interpreter,
            // which sized its opportunity count.
            const PathCompletion &latest = threads_[thread].latest;
            if (latest.plan && latest.opportunity ==
                                   (*opportunities_)[thread]) {
                ++*counters_.recorded;
                onPathSampled(*latest.plan, latest.number);
            }
        }
        if (--countdown_.samples == 0)
            countdown_ = onBurstEnd();
        return sampleCost_;
    }

  protected:
    /** `add_cost` / `reset_cost`: cycles of r += v and r = c (zero for
     *  a profiler that charges nothing). */
    PathRegisterHooks(std::uint32_t add_cost, std::uint32_t reset_cost)
        : addCost_(add_cost), resetCost_(reset_cost)
    {
    }

    /**
     * Sample completions instead of receiving them: each completion
     * overwrites its thread's latest-completion slot and counts in
     * `counters.completed`, with no call, and sampleOpportunity counts
     * into `counters`, a stride costing `stride_cost` cycles and a
     * sample `sample_cost`. `opportunities` is the machine's per-thread
     * sampling-opportunity counts (Machine::samplingOpportunityCounts).
     * Both must outlive this object.
     */
    void
    sampleCompletions(const std::vector<std::uint64_t> &opportunities,
                      const SampleCounters &counters,
                      std::uint32_t stride_cost, std::uint32_t sample_cost)
    {
        opportunities_ = &opportunities;
        counters_ = counters;
        strideCost_ = stride_cost;
        sampleCost_ = sample_cost;
    }

    /** Replace the burst in progress (a tick, or the first burst). */
    void startBurst(const SampleBurst &burst) { countdown_ = burst; }

    /** A tick fired at a yieldpoint of `thread` that is no sampling
     *  opportunity: it waits for the thread's next one. */
    void
    holdTick(std::uint32_t thread)
    {
        bool &held = threadSlot(thread).tickHeld;
        ticksHeld_ += !held;
        held = true;
    }

    /** Whether a tick waited for this opportunity of `thread`; it no
     *  longer does. */
    bool
    releaseTick(std::uint32_t thread)
    {
        if (!tickHeld(thread))
            return false;
        threads_[thread].tickHeld = false;
        --ticksHeld_;
        return true;
    }

    /** Forget every thread's latest completion and held tick. The
     *  countdown runs on. */
    void
    clearThreads()
    {
        threads_.clear();
        ticksHeld_ = 0;
    }

    /** Complete the frame's partial k-window (frame exit, OSR) as a
     *  short k-path — or drop it under truncateWindowInjection_. */
    void
    flushWindow(PathRegister &reg, std::uint32_t thread)
    {
        if (reg.window.length == 0)
            return;
        const std::uint64_t id = reg.plan->kpath->close(reg.window);
        if (!truncateWindowInjection_)
            complete(*reg.plan, id, thread);
    }

    /** Fault injection (core::PathEngine::setTruncateWindowInjection). */
    bool truncateWindowInjection_ = false;

  private:
    /** One virtual thread's sampling state. */
    struct ThreadSlot
    {
        PathCompletion latest;
        bool tickHeld = false;
    };

    ThreadSlot &
    threadSlot(std::uint32_t thread)
    {
        if (threads_.size() <= thread)
            threads_.resize(thread + 1);
        return threads_[thread];
    }

    std::uint32_t
    endSegment(PathRegister &reg, std::uint64_t end_add,
               std::uint64_t restart, std::uint32_t thread)
    {
        completeSegment(reg, reg.value + end_add, thread);
        reg.value = restart;
        return (end_add != 0 ? addCost_ : 0) + resetCost_;
    }

    /** A Ball-Larus segment ended with `number`: fold it into the
     *  frame's k-window, and complete the window once it is full. With
     *  k == 1 the window id is the number itself. */
    void
    completeSegment(PathRegister &reg, std::uint64_t number,
                    std::uint32_t thread)
    {
        const profile::KPathScheme &kpath = *reg.plan->kpath;
        if (kpath.kEffective() != 1) {
            if (!kpath.append(reg.window, number))
                return;
            number = kpath.close(reg.window);
        }
        complete(*reg.plan, number, thread);
    }

    void
    complete(PathPlan &plan, std::uint64_t id, std::uint32_t thread)
    {
        if (!counters_.completed) {
            onPathCompleted(plan, id, thread);
            return;
        }
        ++*counters_.completed;
        PathCompletion &slot = threadSlot(thread).latest;
        slot.plan = &plan;
        slot.number = id;
        slot.opportunity = thread < opportunities_->size()
                               ? (*opportunities_)[thread]
                               : 0;
    }

    const std::uint32_t addCost_;
    const std::uint32_t resetCost_;

    /** Set by sampleCompletions (null `completed`: completions are
     *  calls). */
    const std::vector<std::uint64_t> *opportunities_ = nullptr;
    SampleCounters counters_;
    std::uint32_t strideCost_ = 0;
    std::uint32_t sampleCost_ = 0;

    /** The one sampling countdown (see the class comment). */
    SampleBurst countdown_;

    /** Indexed by virtual thread; grown on first completion or held
     *  tick. */
    std::vector<ThreadSlot> threads_;

    /** Threads whose tickHeld is set: while 0, which is nearly always,
     *  tickHeld answers without touching threads_. */
    std::uint32_t ticksHeld_ = 0;
};

/** Notified when the machine (re)compiles a method. */
class CompileObserver
{
  public:
    virtual ~CompileObserver() = default;

    /** `version` is the freshly created compiled version. */
    virtual void onCompile(bytecode::MethodId method,
                           const CompiledMethod &version) = 0;
};

} // namespace pep::vm

#endif // PEP_VM_HOOKS_HH
