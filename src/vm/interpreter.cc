#include "vm/interpreter.hh"

#include "vm/decoded_method.hh"
#include "vm/inliner.hh"

#include "support/panic.hh"

namespace pep::vm {

namespace {

/** Evaluate a compare-to-zero branch condition. */
bool
zeroCond(bytecode::Opcode op, std::int32_t v)
{
    using bytecode::Opcode;
    switch (op) {
      case Opcode::Ifeq:
        return v == 0;
      case Opcode::Ifne:
        return v != 0;
      case Opcode::Iflt:
        return v < 0;
      case Opcode::Ifge:
        return v >= 0;
      case Opcode::Ifgt:
        return v > 0;
      case Opcode::Ifle:
        return v <= 0;
      default:
        PEP_PANIC("not a zero-compare branch");
    }
}

/** Evaluate a two-operand compare branch condition. */
bool
cmpCond(bytecode::Opcode op, std::int32_t a, std::int32_t b)
{
    using bytecode::Opcode;
    switch (op) {
      case Opcode::IfIcmpeq:
        return a == b;
      case Opcode::IfIcmpne:
        return a != b;
      case Opcode::IfIcmplt:
        return a < b;
      case Opcode::IfIcmpge:
        return a >= b;
      case Opcode::IfIcmpgt:
        return a > b;
      case Opcode::IfIcmple:
        return a <= b;
      default:
        PEP_PANIC("not a compare branch");
    }
}

std::int32_t
wrapArith(bytecode::Opcode op, std::int32_t a, std::int32_t b)
{
    using bytecode::Opcode;
    const auto ua = static_cast<std::uint32_t>(a);
    const auto ub = static_cast<std::uint32_t>(b);
    switch (op) {
      case Opcode::Iadd:
        return static_cast<std::int32_t>(ua + ub);
      case Opcode::Isub:
        return static_cast<std::int32_t>(ua - ub);
      case Opcode::Imul:
        return static_cast<std::int32_t>(ua * ub);
      case Opcode::Idiv:
        return b == 0 ? 0
               : (a == INT32_MIN && b == -1) ? a
                                             : a / b;
      case Opcode::Irem:
        return b == 0 ? 0
               : (a == INT32_MIN && b == -1) ? 0
                                             : a % b;
      case Opcode::Iand:
        return static_cast<std::int32_t>(ua & ub);
      case Opcode::Ior:
        return static_cast<std::int32_t>(ua | ub);
      case Opcode::Ixor:
        return static_cast<std::int32_t>(ua ^ ub);
      case Opcode::Ishl:
        return static_cast<std::int32_t>(ua << (ub & 31));
      case Opcode::Ishr:
        return a >> (ub & 31);
      default:
        PEP_PANIC("not a binary arithmetic op");
    }
}

} // namespace

Interpreter::Interpreter(Machine &machine, std::uint32_t thread)
    : vm_(machine), thread_(thread),
      rng_(&machine.rngForThread(thread))
{
    if (vm_.opportunities_.size() <= thread)
        vm_.opportunities_.resize(thread + 1, 0);
}

FrameView
Interpreter::view(const Frame &frame) const
{
    FrameView fv;
    fv.method = frame.method;
    fv.version = frame.version;
    fv.depth = static_cast<std::uint32_t>(frames_.size()) - 1;
    fv.thread = thread_;
    return fv;
}

const CompiledMethod *
Interpreter::resolveVersion(bytecode::MethodId m)
{
    const CompiledMethod *current = vm_.currentVersion(m);
    const OptLevel target = vm_.targetLevel(m);
    if (!current ||
        static_cast<int>(target) > static_cast<int>(current->level)) {
        return &vm_.compile(m, target);
    }
    return current;
}

void
Interpreter::pushFrame(bytecode::MethodId m, Frame *caller,
                       const std::vector<std::int32_t> *entry_args)
{
    if (frames_.size() >= vm_.params_.maxCallDepth)
        support::fatal("call stack overflow (depth limit)");

    const CompiledMethod *version = resolveVersion(m);

    Frame frame;
    frame.method = m;
    frame.version = version;
    if (version->inlinedBody) {
        frame.code = &version->inlinedBody->method;
        frame.info = &version->inlinedBody->info;
    } else {
        frame.code = &vm_.program_.methods[m];
        frame.info = &vm_.infos_[m];
    }
    frame.pc = 0;
    frame.locals.assign(frame.code->numLocals, 0);
    frame.stack.reserve(frame.code->maxStack);
    if (frame.code->numArgs > 0) {
        if (caller) {
            PEP_ASSERT(caller->stack.size() >= frame.code->numArgs);
            for (std::uint32_t i = frame.code->numArgs; i > 0; --i) {
                frame.locals[i - 1] = caller->stack.back();
                caller->stack.pop_back();
            }
        } else {
            // Root frame of a request: arguments come from the driver.
            PEP_ASSERT_MSG(entry_args && entry_args->size() ==
                                             frame.code->numArgs,
                           "entry method argument count mismatch");
            for (std::uint32_t i = 0; i < frame.code->numArgs; ++i)
                frame.locals[i] = (*entry_args)[i];
        }
    }
    frames_.push_back(std::move(frame));
    ++vm_.stats_.methodInvocations;

    Frame &f = frames_.back();
    // The frame binds the plan its stream was translated against.
    if (PathRegisterHooks *paths = vm_.pathHooks_) {
        vm_.cycles_ +=
            paths->enterFrame(f.path, vm_.decodedFor(*version).plan);
    }
    const FrameView fv = view(f);
    for (ExecutionHooks *hooks : vm_.hooks_)
        hooks->onMethodEntry(fv);
    yieldpoint(YieldpointKind::MethodEntry);

    // The entry -> first-block edge is a real CFG (and DAG) edge.
    edgeTaken(f, cfg::EdgeRef{f.info->cfg.graph.entry(), 0});
    if (f.info->headerLeaderPc[0])
        enterHeader(f, f.info->cfg.blockOfPc[0]);
}

void
Interpreter::yieldpoint(YieldpointKind kind, cfg::BlockId block)
{
    Frame &f = frames_.back();
    ++vm_.stats_.yieldpointsExecuted;
    vm_.cycles_ += vm_.params_.cost.yieldpointCheckCost;

    // Poll the virtual timer; coalesce missed ticks like a real
    // interrupt flag would.
    bool tick_fired = false;
    while (vm_.cycles_ >= vm_.nextTickAt_) {
        vm_.nextTickAt_ += vm_.params_.tickCycles;
        ++vm_.stats_.timerTicks;
        tick_fired = true;
    }

    if (tick_fired) {
        // The handler examines the stack and updates method sample
        // counts (Jikes RVM's adaptive system). This cost exists with
        // or without PEP, so it never appears as PEP overhead.
        vm_.cycles_ += vm_.params_.cost.tickHandlerCost;
        vm_.methodSample(f.method);
        if (vm_.cycles_ - iterationStart_ >
            vm_.params_.maxCyclesPerIteration) {
            support::fatal("iteration exceeded cycle budget");
        }
    }

    const FrameView fv = view(f);
    for (ExecutionHooks *hooks : vm_.hooks_)
        hooks->onYieldpoint(fv, kind, tick_fired);
    // The inline path profiler is entered at a tick and at the sampling
    // opportunity a held tick waits for; every other opportunity runs
    // its sampling countdown here.
    const bool opportunity = kind != YieldpointKind::MethodEntry;
    if (PathRegisterHooks *paths = vm_.pathHooks_) {
        if (tick_fired || (opportunity && paths->tickHeld(thread_)))
            paths->onYieldpoint(fv, kind, tick_fired);
        else if (opportunity)
            vm_.cycles_ += paths->sampleOpportunity(thread_);
    }
    if (opportunity)
        ++vm_.opportunities_[thread_];

    // On-stack replacement: at a loop-header yieldpoint after a tick,
    // switch this frame to a pending higher-tier compilation instead
    // of waiting for the next invocation.
    if (kind == YieldpointKind::LoopHeader && tick_fired &&
        vm_.params_.enableOsr && !f.version->inlinedBody) {
        // (Frames already running an inlined body are not transferred
        // again — their pcs are not in the root-code coordinate space.)
        const OptLevel target = vm_.targetLevel(f.method);
        const CompiledMethod *fresh = nullptr;
        if (static_cast<int>(target) >
            static_cast<int>(f.version->level)) {
            // An earlier invocation or OSR attempt may have installed
            // the target version already; reuse it rather than compile
            // again.
            const CompiledMethod *current = vm_.currentVersion(f.method);
            fresh = current->level == target
                        ? current
                        : &vm_.compile(f.method, target);
        }
        // Cloning retargets the back edge into a private copy of the
        // loop, which can leave the header pc mid-block in the
        // synthesized code, where the threaded engine cannot resume.
        // Such a frame stays on its version; its method's next
        // invocation runs the new one.
        const InlinedBody *body =
            fresh ? fresh->inlinedBody.get() : nullptr;
        if (body && !body->info.leaderPc[body->rootPcMap[f.pc]])
            fresh = nullptr;
        if (fresh) {
            f.version = fresh;
            cfg::BlockId new_block = block;
            if (body) {
                // Transfer the frame into the synthesized code: map
                // the pc, adopt the new tables, and make room for the
                // inlined callees' local slots.
                f.pc = body->rootPcMap[f.pc];
                f.code = &body->method;
                f.info = &body->info;
                f.locals.resize(f.code->numLocals, 0);
                new_block = f.info->cfg.blockOfPc[f.pc];
            }
            vm_.cycles_ += vm_.params_.cost.osrTransitionCost;
            ++vm_.stats_.osrs;
            const FrameView swapped = view(f);
            for (ExecutionHooks *hooks : vm_.hooks_)
                hooks->onOsr(swapped, new_block);
            if (PathRegisterHooks *paths = vm_.pathHooks_) {
                paths->frameReplaced(f.path, vm_.decodedFor(*fresh).plan,
                                     new_block, thread_);
            }
        }
    }

    // Cooperative scheduling: yieldpoints are the only places a thread
    // switch can be requested (Jikes RVM's quasi-preemptive model).
    // The switch itself happens at the next instruction boundary.
    if (vm_.scheduler_ &&
        vm_.scheduler_->onYieldpoint(thread_, kind, tick_fired)) {
        switchRequested_ = true;
    }
}

void
Interpreter::edgeTaken(Frame &frame, cfg::EdgeRef edge)
{
    foldEdge(vm_.truth_, frame.method, frame.version->inlinedBody.get(),
             edge);
    if (frame.path.plan) {
        vm_.cycles_ += vm_.pathHooks_->takeEdge(
            frame.path, frame.path.plan->edgeBase[edge.src] + edge.index,
            thread_);
    }
    const FrameView fv = view(frame);
    for (ExecutionHooks *hooks : vm_.hooks_)
        hooks->onEdge(fv, edge);

    // Alternative yieldpoint placement (paper Section 3.2): on back
    // edges instead of loop headers. Fired after onEdge so a
    // back-edge-truncating profiler has already completed the path.
    if (vm_.params_.yieldpointsOnBackEdges &&
        frame.info->isBackEdge[edge.src][edge.index]) {
        yieldpoint(YieldpointKind::BackEdge);
    }
}

void
Interpreter::edgeTakenFast(Frame &frame, cfg::EdgeRef edge,
                           std::uint32_t flat_id, bool path_work)
{
    foldEdge(vm_.truth_, frame.method, frame.version->inlinedBody.get(),
             edge);
    // A clear path-work bit: takeEdge would change nothing. A set one
    // may meet a frame OSR stopped profiling.
    if (path_work && frame.path.plan)
        vm_.cycles_ += vm_.pathHooks_->takeEdge(frame.path, flat_id, thread_);
    const FrameView fv = view(frame);
    for (ExecutionHooks *hooks : vm_.hooks_)
        hooks->onEdgeFast(fv, edge, flat_id);
    if (vm_.params_.yieldpointsOnBackEdges &&
        frame.info->isBackEdge[edge.src][edge.index]) {
        yieldpoint(YieldpointKind::BackEdge);
    }
}

void
Interpreter::enterHeader(Frame &frame, cfg::BlockId block)
{
    // The header event (path truncation for HeaderSplit profilers)
    // always fires; the header *yieldpoint* only exists under the
    // default placement.
    if (frame.path.plan)
        vm_.cycles_ += vm_.pathHooks_->enterHeader(frame.path, block, thread_);
    const FrameView fv = view(frame);
    for (ExecutionHooks *hooks : vm_.hooks_)
        hooks->onLoopHeader(fv, block);
    if (!vm_.params_.yieldpointsOnBackEdges)
        yieldpoint(YieldpointKind::LoopHeader, block);
}

void
Interpreter::exitFrame(Frame &frame)
{
    if (frame.path.plan)
        vm_.pathHooks_->exitFrame(frame.path, thread_);
    const FrameView fv = view(frame);
    for (ExecutionHooks *hooks : vm_.hooks_)
        hooks->onMethodExit(fv);
}

void
Interpreter::transferTo(Frame &frame, bytecode::Pc target)
{
    frame.pc = target;
    const MethodInfo &info = *frame.info;
    if (info.headerLeaderPc[target])
        enterHeader(frame, info.cfg.blockOfPc[target]);
}

void
Interpreter::advance(Frame &frame)
{
    const bytecode::Pc next = frame.pc + 1;
    const MethodInfo &info = *frame.info;
    if (next < info.leaderPc.size() && info.leaderPc[next]) {
        // Fall-through into the next block: a CFG edge.
        const cfg::BlockId block = info.cfg.blockOfPc[frame.pc];
        edgeTaken(frame, cfg::EdgeRef{block, 0});
        transferTo(frame, next);
    } else {
        frame.pc = next;
    }
}

void
Interpreter::run()
{
    start(vm_.program_.mainMethod);
    while (!done())
        resume();
}

void
Interpreter::start(bytecode::MethodId entry,
                   const std::vector<std::int32_t> &args)
{
    PEP_ASSERT_MSG(frames_.empty(),
                   "start() while an invocation is in flight");
    switchRequested_ = false;
    iterationStart_ = vm_.cycles_;
    pushFrame(entry, nullptr, &args);
}

bool
Interpreter::resume()
{
    if (!frames_.empty()) {
        if (vm_.params_.engine == EngineKind::Threaded)
            loopThreaded();
        else
            loop();
    }
    return frames_.empty();
}

void
Interpreter::loop()
{
    const CostModel &cost = vm_.params_.cost;

    while (!frames_.empty()) {
        if (switchRequested_) {
            // A yieldpoint asked for a context switch; park with the
            // frame stack intact. The scheduler resumes us later.
            switchRequested_ = false;
            return;
        }
        Frame &f = frames_.back();
        const bytecode::Instr &instr = f.code->code[f.pc];
        const auto op_index = static_cast<std::size_t>(instr.op);

        vm_.cycles_ += f.version->scaledCost[op_index];
        ++vm_.stats_.instructionsExecuted;

        using bytecode::Opcode;
        switch (instr.op) {
          case Opcode::Iconst:
            f.stack.push_back(instr.a);
            advance(f);
            break;
          case Opcode::Iload:
            f.stack.push_back(f.locals[instr.a]);
            advance(f);
            break;
          case Opcode::Istore:
            f.locals[instr.a] = f.stack.back();
            f.stack.pop_back();
            advance(f);
            break;
          case Opcode::Iinc:
            f.locals[instr.a] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(f.locals[instr.a]) +
                static_cast<std::uint32_t>(instr.b));
            advance(f);
            break;
          case Opcode::Dup:
            f.stack.push_back(f.stack.back());
            advance(f);
            break;
          case Opcode::Pop:
            f.stack.pop_back();
            advance(f);
            break;
          case Opcode::Swap:
            std::swap(f.stack[f.stack.size() - 1],
                      f.stack[f.stack.size() - 2]);
            advance(f);
            break;
          case Opcode::Iadd:
          case Opcode::Isub:
          case Opcode::Imul:
          case Opcode::Idiv:
          case Opcode::Irem:
          case Opcode::Iand:
          case Opcode::Ior:
          case Opcode::Ixor:
          case Opcode::Ishl:
          case Opcode::Ishr: {
            const std::int32_t b = f.stack.back();
            f.stack.pop_back();
            const std::int32_t a = f.stack.back();
            f.stack.back() = wrapArith(instr.op, a, b);
            advance(f);
            break;
          }
          case Opcode::Ineg:
            f.stack.back() = static_cast<std::int32_t>(
                -static_cast<std::uint32_t>(f.stack.back()));
            advance(f);
            break;
          case Opcode::Gload: {
            const std::int32_t idx = f.stack.back();
            if (idx < 0 ||
                static_cast<std::size_t>(idx) >= vm_.globals_.size()) {
                support::fatal("gload index out of bounds");
            }
            f.stack.back() = vm_.globals_[idx];
            advance(f);
            break;
          }
          case Opcode::Gstore: {
            const std::int32_t idx = f.stack.back();
            f.stack.pop_back();
            const std::int32_t value = f.stack.back();
            f.stack.pop_back();
            if (idx < 0 ||
                static_cast<std::size_t>(idx) >= vm_.globals_.size()) {
                support::fatal("gstore index out of bounds");
            }
            vm_.globals_[idx] = value;
            advance(f);
            break;
          }
          case Opcode::Irnd:
            f.stack.push_back(static_cast<std::int32_t>(rng_->next()));
            advance(f);
            break;
          case Opcode::Goto: {
            const cfg::BlockId block = f.info->cfg.blockOfPc[f.pc];
            edgeTaken(f, cfg::EdgeRef{block, 0});
            transferTo(f, static_cast<bytecode::Pc>(instr.a));
            break;
          }
          case Opcode::Tableswitch: {
            const std::int32_t v = f.stack.back();
            f.stack.pop_back();
            const MethodInfo &info = *f.info;
            const cfg::BlockId block = info.cfg.blockOfPc[f.pc];
            const std::int64_t rel =
                static_cast<std::int64_t>(v) - instr.a;
            std::uint32_t succ_index;
            bytecode::Pc target;
            if (rel >= 0 &&
                rel < static_cast<std::int64_t>(instr.table.size())) {
                succ_index = static_cast<std::uint32_t>(rel);
                target = static_cast<bytecode::Pc>(
                    instr.table[static_cast<std::size_t>(rel)]);
            } else {
                succ_index =
                    static_cast<std::uint32_t>(instr.table.size());
                target = static_cast<bytecode::Pc>(instr.b);
            }
            ++vm_.stats_.branchesExecuted;
            const std::int16_t layout = f.version->layoutFor(block);
            const std::uint32_t predicted =
                layout >= 0
                    ? static_cast<std::uint32_t>(layout)
                    : static_cast<std::uint32_t>(instr.table.size());
            if (succ_index != predicted) {
                vm_.cycles_ += cost.layoutMissPenalty;
                ++vm_.stats_.layoutMisses;
            }
            if (f.version->baselineEdgeInstr) {
                vm_.cycles_ += cost.edgeCounterCost;
                vm_.oneTime_.perMethod[f.method].addEdge(
                    cfg::EdgeRef{block, succ_index});
            }
            edgeTaken(f, cfg::EdgeRef{block, succ_index});
            transferTo(f, target);
            break;
          }
          case Opcode::Invoke: {
            const auto callee =
                static_cast<bytecode::MethodId>(instr.a);
            advance(f); // resume point; also fires block-end edge
            pushFrame(callee, &f);
            break;
          }
          case Opcode::Return:
          case Opcode::Ireturn: {
            const MethodInfo &info = *f.info;
            const cfg::BlockId block = info.cfg.blockOfPc[f.pc];
            std::int32_t result = 0;
            const bool has_result = (instr.op == Opcode::Ireturn);
            if (has_result) {
                result = f.stack.back();
                f.stack.pop_back();
            }
            edgeTaken(f, cfg::EdgeRef{block, 0});
            exitFrame(f);
            yieldpoint(YieldpointKind::MethodExit);
            frames_.pop_back();
            if (!frames_.empty() && has_result)
                frames_.back().stack.push_back(result);
            break;
          }
          default: {
            // Conditional branches.
            PEP_ASSERT(bytecode::isCondBranch(instr.op));
            bool taken;
            if (bytecode::isCmpBranch(instr.op)) {
                const std::int32_t b = f.stack.back();
                f.stack.pop_back();
                const std::int32_t a = f.stack.back();
                f.stack.pop_back();
                taken = cmpCond(instr.op, a, b);
            } else {
                const std::int32_t v = f.stack.back();
                f.stack.pop_back();
                taken = zeroCond(instr.op, v);
            }
            const MethodInfo &info = *f.info;
            const cfg::BlockId block = info.cfg.blockOfPc[f.pc];

            ++vm_.stats_.branchesExecuted;
            const std::int16_t layout = f.version->layoutFor(block);
            const bool predicted_taken = (layout == 1);
            if (taken != predicted_taken) {
                vm_.cycles_ += cost.layoutMissPenalty;
                ++vm_.stats_.layoutMisses;
            }
            const cfg::EdgeRef edge{block, taken ? 0u : 1u};
            if (f.version->baselineEdgeInstr) {
                vm_.cycles_ += cost.edgeCounterCost;
                vm_.oneTime_.perMethod[f.method].addEdge(edge);
            }
            edgeTaken(f, edge);
            if (taken) {
                transferTo(f, static_cast<bytecode::Pc>(instr.a));
            } else {
                transferTo(f, f.pc + 1);
            }
            break;
          }
        }
    }
}

std::uint64_t
Machine::runIteration()
{
    const std::uint64_t start = cycles_;
    Interpreter interpreter(*this);
    interpreter.run();
    return cycles_ - start;
}

} // namespace pep::vm
