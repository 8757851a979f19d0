#ifndef PEP_VM_INTERPRETER_HH
#define PEP_VM_INTERPRETER_HH

/**
 * @file
 * The execution engine. Interprets bytecode instruction by instruction,
 * charging the cost model, maintaining ground-truth edge counts, firing
 * profiler hooks (method entry/exit, edges, loop headers, yieldpoints),
 * polling the virtual timer at yieldpoints, and driving lazy/adaptive
 * compilation at call sites.
 */

#include <cstdint>
#include <vector>

#include "bytecode/method.hh"
#include "vm/machine.hh"

namespace pep::vm {

/** One invocation record. */
struct Frame
{
    bytecode::MethodId method = 0;
    const CompiledMethod *version = nullptr;

    /** Code this frame executes: the method's bytecode, or the
     *  version's inlined body. */
    const bytecode::Method *code = nullptr;

    /** Execution tables matching `code`. */
    const MethodInfo *info = nullptr;

    bytecode::Pc pc = 0;
    std::vector<std::int32_t> locals;
    std::vector<std::int32_t> stack;

    /** The frame's register for the machine's inline path profiler
     *  (threaded engine only; docs/ENGINE.md, "Inline path
     *  registers"). Unbound (null plan) otherwise. */
    PathRegister path;
};

/**
 * Runs invocations on a Machine. The classic use is one-shot (run()
 * executes main() to completion); the concurrent runtime instead keeps
 * one Interpreter per virtual mutator thread alive across requests,
 * using start() / resume() / done(): resume() executes until the frame
 * stack empties or the machine's ThreadScheduler requests a context
 * switch at a yieldpoint, at which point the interpreter parks with its
 * frame stack intact and can be resumed later.
 */
class Interpreter
{
  public:
    /** `thread` is the virtual mutator thread id this interpreter
     *  represents; it selects the Irnd stream and is reported to hooks
     *  in FrameView::thread. */
    explicit Interpreter(Machine &machine, std::uint32_t thread = 0);

    /** Execute main() to completion. */
    void run();

    /**
     * Begin an invocation of `entry` with the given arguments (the
     * request-stream workload's per-request variation). Only valid when
     * done(); does not execute any code yet — call resume().
     */
    void start(bytecode::MethodId entry,
               const std::vector<std::int32_t> &args = {});

    /**
     * Execute until the current invocation completes or the scheduler
     * requests a switch. Returns true if the invocation completed
     * (done() is true).
     */
    bool resume();

    /** No frames live: ready for the next start(). */
    bool done() const { return frames_.empty(); }

    std::uint32_t threadId() const { return thread_; }

  private:
    /** Execute instructions until the frame stack empties or a thread
     *  switch is requested (switch-dispatch backend). */
    void loop();

    /**
     * The threaded backend: same contract as loop(), executing each
     * frame's pre-decoded template stream (decoded_method.hh) with
     * computed-goto dispatch where the compiler supports it. Byte-
     * identical observable behaviour to loop() — see docs/ENGINE.md.
     */
    void loopThreaded();

    /** Push a frame for `m`, taking numArgs arguments from `caller`'s
     *  operand stack, or from `entry_args` when this is the root frame
     *  of an invocation (caller == nullptr). */
    void pushFrame(bytecode::MethodId m, Frame *caller,
                   const std::vector<std::int32_t> *entry_args = nullptr);

    /** Fire a yieldpoint: poll the timer, take adaptive method
     *  samples, notify hooks, and perform OSR at loop headers when
     *  enabled. `block` is the header block for LoopHeader
     *  yieldpoints. */
    void yieldpoint(YieldpointKind kind,
                    cfg::BlockId block = cfg::kInvalidBlock);

    /** Fire edge hooks + ground truth for a taken CFG edge (edge ids
     *  are in the frame's executing CFG; ground truth maps inlined
     *  branch edges back to their original bytecode branch), and run
     *  the edge's action on the frame's inline path register. */
    void edgeTaken(Frame &frame, cfg::EdgeRef edge);

    /** edgeTaken with the edge's dense flat id precomputed by the
     *  threaded engine's templates (fires onEdgeFast). */
    void edgeTakenFast(Frame &frame, cfg::EdgeRef edge,
                       std::uint32_t flat_id);

    /** Control entered loop header `block`: the inline path register's
     *  header action, the header hooks, and the header yieldpoint
     *  under the default placement. */
    void enterHeader(Frame &frame, cfg::BlockId block);

    /** The frame returns (after its return edge): the inline path
     *  register's exit completion and the exit hooks. */
    void exitFrame(Frame &frame);

    /** Transfer control to `target` pc, firing header events. */
    void transferTo(Frame &frame, bytecode::Pc target);

    /** Advance past a non-branch instruction at frame.pc, firing the
     *  fall-through edge when the block ends there. */
    void advance(Frame &frame);

    /** Ensure the method is compiled at its target level; returns the
     *  version new invocations should use. */
    const CompiledMethod *resolveVersion(bytecode::MethodId m);

    FrameView view(const Frame &frame) const;

    Machine &vm_;
    std::vector<Frame> frames_;
    std::uint32_t thread_ = 0;

    /** This thread's Irnd stream (owned by the machine). */
    support::Rng *rng_ = nullptr;

    /** Set at a yieldpoint when the scheduler wants this thread off
     *  the (virtual) processor; honoured at the next instruction
     *  boundary. */
    bool switchRequested_ = false;

    std::uint64_t iterationStart_ = 0;
};

} // namespace pep::vm

#endif // PEP_VM_INTERPRETER_HH
