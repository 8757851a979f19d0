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
 * executes the register arithmetic defined once in PathRegisterHooks,
 * and the profiler is entered only where a path segment completes and
 * at the yieldpoints it armed.
 */

#include <cstdint>

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
 * it, and into the flat edge numbering of the CFG the plan indexes by.
 * The profiler owns it (core::VersionProfile derives from it), and it
 * lives as long as the profiler.
 */
struct PathPlan
{
    const profile::EdgeAction *edges = nullptr;  ///< flatEdgeActions
    const std::uint32_t *edgeBase = nullptr;     ///< MethodCfg::edgeBase
    const profile::HeaderAction *headers = nullptr;
};

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
 * A path profiler (core::PathEngine) as the engine sees it. Under
 * EngineKind::Threaded, Machine::addHooks adopts the first one attached
 * as the machine's inline path profiler: the interpreter executes the
 * register arithmetic below from each frame's PathRegister (r = 0 at
 * push, flat edge actions at edge templates, header actions at header
 * transfers) and calls in only where a segment completes, at frame
 * exit and OSR, and at the yieldpoints where a tick fired or
 * yieldpointsArmed(). It then receives no other ExecutionHooks event.
 * Under the switch engine — the reference — and for every further path
 * profiler it is an ordinary hook that runs the same functions from
 * registers of its own; the engines' byte-identity contract (differ
 * check 7) covers both.
 *
 * An implementation whose onYieldpoint does anything at a yieldpoint
 * without a tick must keep yieldpointsArmed() true until it no longer
 * does: the threaded engine skips the call otherwise.
 */
class PathRegisterHooks : public ExecutionHooks
{
  public:
    /** The plan frames of `version` execute, or nullptr when this
     *  profiler did not instrument it. A pure function of the
     *  version; the machine asks once per version. */
    virtual PathPlan *planFor(const CompiledMethod &version) = 0;

    /** A Ball-Larus segment of the frame's path completed with
     *  `number` (r + endAdd at a header or truncated back edge). */
    virtual void segmentCompleted(PathRegister &reg, std::uint64_t number,
                                  std::uint32_t thread) = 0;

    /** The frame returns, after its return edge: r numbers the path it
     *  ends, and a partial k-window is flushed. */
    virtual void frameExited(PathRegister &reg, std::uint32_t thread) = 0;

    /** OSR switched the frame to a version whose plan is `plan`, at
     *  loop header `header` of that version's CFG. */
    virtual void frameReplaced(PathRegister &reg, PathPlan *plan,
                               cfg::BlockId header,
                               std::uint32_t thread) = 0;

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
     *  or the count/restart pair of a truncated back edge. */
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

    /** False while onYieldpoint does nothing at a yieldpoint without a
     *  tick (PEP: its controller is dormant and no thread holds a tick
     *  for its next sampling opportunity). */
    bool yieldpointsArmed() const { return yieldpointsArmed_; }

  protected:
    /** `add_cost` / `reset_cost`: cycles of r += v and r = c (zero for
     *  a profiler that charges nothing). */
    PathRegisterHooks(std::uint32_t add_cost, std::uint32_t reset_cost)
        : addCost_(add_cost), resetCost_(reset_cost)
    {
    }

    void setYieldpointsArmed(bool armed) { yieldpointsArmed_ = armed; }

  private:
    std::uint32_t
    endSegment(PathRegister &reg, std::uint64_t end_add,
               std::uint64_t restart, std::uint32_t thread)
    {
        segmentCompleted(reg, reg.value + end_add, thread);
        reg.value = restart;
        return (end_add != 0 ? addCost_ : 0) + resetCost_;
    }

    const std::uint32_t addCost_;
    const std::uint32_t resetCost_;
    bool yieldpointsArmed_ = false;
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
