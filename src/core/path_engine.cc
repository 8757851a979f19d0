#include "core/path_engine.hh"

#include "vm/inliner.hh"
#include "support/panic.hh"

namespace pep::core {

std::unique_ptr<MethodProfilingState>
buildProfilingState(const bytecode::MethodCfg &method_cfg,
                    bytecode::MethodId method, std::uint32_t version,
                    profile::DagMode mode,
                    profile::NumberingScheme scheme,
                    const profile::MethodEdgeProfile *freq_profile,
                    profile::PlacementKind placement,
                    std::uint32_t k_iterations)
{
    auto state = std::make_unique<MethodProfilingState>(
        method_cfg, mode, scheme, freq_profile, placement);
    state->method = method;
    state->version = version;
    // The k-path id space is layered over the finished plan.
    state->kpath = profile::KPathScheme(
        state->plan.enabled ? state->plan.totalPaths : 0, k_iterations);
    return state;
}

PathEngine::PathEngine(vm::Machine &machine, profile::DagMode mode,
                       profile::NumberingScheme scheme,
                       bool charge_costs,
                       profile::PlacementKind placement,
                       std::uint32_t k_iterations)
    : PathRegisterHooks(
          charge_costs ? machine.params().cost.pathRegAddCost : 0,
          charge_costs ? machine.params().cost.pathRegResetCost : 0),
      vm_(machine), mode_(mode), scheme_(scheme),
      chargeCosts_(charge_costs), placement_(placement),
      kIterations_(k_iterations == 0 ? 1 : k_iterations)
{
}

const profile::MethodEdgeProfile *
PathEngine::freqProfileFor(bytecode::MethodId method)
{
    const profile::MethodEdgeProfile &one_time =
        vm_.oneTimeEdges().perMethod[method];
    return one_time.totalCount() > 0 ? &one_time : nullptr;
}

void
PathEngine::onCompile(bytecode::MethodId method,
                      const vm::CompiledMethod &version)
{
    // Instrument the code the version actually runs: the inlined body
    // when inlining produced one, otherwise the method's own CFG.
    const bytecode::MethodCfg &version_cfg =
        version.inlinedBody ? version.inlinedBody->info.cfg
                            : vm_.info(method).cfg;
    auto state = buildProfilingState(
        version_cfg, method, version.version, mode_, scheme_,
        version.inlinedBody ? nullptr : freqProfileFor(method),
        placement_, kIterations_);
    state->compiled = &version;
    if (!state->plan.enabled)
        ++overflowCount_;

    // Charge the instrumentation pass (three quick passes over the
    // method; Section 6.2).
    const vm::CostModel &cost = vm_.params().cost;
    const std::uint32_t per_instr =
        version.level == vm::OptLevel::Opt2
            ? cost.opt2CompileCostPerInstr
            : cost.opt1CompileCostPerInstr;
    const double pass_cycles =
        cost.pepCompilePassOverhead * per_instr *
        static_cast<double>(vm_.program().methods[method].code.size());
    charge(static_cast<std::uint64_t>(pass_cycles));

    if (versions_.size() <= method)
        versions_.resize(method + 1);
    std::vector<std::unique_ptr<VersionProfile>> &slots =
        versions_[method];
    if (slots.size() <= version.version)
        slots.resize(version.version + 1);
    auto vp = std::make_unique<VersionProfile>();
    vp->state = std::move(state);
    const profile::InstrumentationPlan &plan = vp->state->plan;
    vp->edges = plan.flatEdgeActions.data();
    vp->edgeBase = version_cfg.edgeBase.data();
    vp->headers = plan.headerActions.data();
    vp->kpath = &vp->state->kpath;
    slots[version.version] = std::move(vp);
}

VersionProfile *
PathEngine::findVersion(bytecode::MethodId method,
                        std::uint32_t version) const
{
    if (method >= versions_.size())
        return nullptr;
    const std::vector<std::unique_ptr<VersionProfile>> &slots =
        versions_[method];
    if (version >= slots.size())
        return nullptr;
    return slots[version].get();
}

std::vector<std::pair<VersionKey, VersionProfile *>>
PathEngine::versionProfiles()
{
    std::vector<std::pair<VersionKey, VersionProfile *>> result;
    for (std::size_t m = 0; m < versions_.size(); ++m) {
        for (std::size_t v = 0; v < versions_[m].size(); ++v) {
            if (versions_[m][v]) {
                result.emplace_back(
                    VersionKey{static_cast<bytecode::MethodId>(m),
                               static_cast<std::uint32_t>(v)},
                    versions_[m][v].get());
            }
        }
    }
    return result;
}

std::vector<std::pair<VersionKey, const VersionProfile *>>
PathEngine::versionProfiles() const
{
    std::vector<std::pair<VersionKey, const VersionProfile *>> result;
    for (const auto &[key, vp] :
         const_cast<PathEngine *>(this)->versionProfiles())
        result.emplace_back(key, vp);
    return result;
}

void
PathEngine::clearPathProfiles()
{
    for (std::vector<std::unique_ptr<VersionProfile>> &slots : versions_)
        for (std::unique_ptr<VersionProfile> &vp : slots)
            if (vp)
                vp->paths.clear();
}

std::vector<vm::PathRegister> &
PathEngine::stackFor(std::uint32_t thread)
{
    if (stacks_.size() <= thread)
        stacks_.resize(thread + 1);
    return stacks_[thread];
}

vm::PathPlan *
PathEngine::planFor(const vm::CompiledMethod &version)
{
    VersionProfile *vp = findVersion(version.method, version.version);
    return vp && vp->state->plan.enabled ? vp : nullptr;
}

void
PathEngine::onMethodEntry(const vm::FrameView &frame)
{
    std::vector<vm::PathRegister> &stack = stackFor(frame.thread);
    stack.emplace_back();
    PEP_ASSERT(stack.size() == frame.depth + 1);
    charge(enterFrame(stack.back(), planFor(*frame.version)));
}

void
PathEngine::onMethodExit(const vm::FrameView &frame)
{
    std::vector<vm::PathRegister> &stack = stacks_[frame.thread];
    PEP_ASSERT(stack.size() == frame.depth + 1);
    if (stack.back().plan)
        exitFrame(stack.back(), frame.thread);
    stack.pop_back();
}

void
PathEngine::onEdge(const vm::FrameView &frame, cfg::EdgeRef edge)
{
    vm::PathRegister &reg = topRegister(frame);
    if (!reg.plan)
        return;
    charge(takeEdge(reg, reg.plan->edgeBase[edge.src] + edge.index,
                    frame.thread));
}

void
PathEngine::onLoopHeader(const vm::FrameView &frame, cfg::BlockId block)
{
    vm::PathRegister &reg = topRegister(frame);
    if (!reg.plan)
        return;
    charge(enterHeader(reg, block, frame.thread));
}

void
PathEngine::onOsr(const vm::FrameView &frame, cfg::BlockId header)
{
    PEP_ASSERT(stacks_[frame.thread].size() == frame.depth + 1);
    frameReplaced(topRegister(frame), planFor(*frame.version), header,
                  frame.thread);
}

void
PathEngine::frameReplaced(vm::PathRegister &reg, vm::PathPlan *plan,
                          cfg::BlockId header, std::uint32_t thread)
{
    // Fault injection: keep the old plan (setStaleOsrPlanInjection).
    if (staleOsrPlanInjection_ && plan &&
        !static_cast<VersionProfile &>(*plan).state->compiled->inlinedBody)
        return;

    // Segment numbers are only meaningful against one version's
    // numbering, so a partial k-window cannot straddle the switch:
    // flush it against the old version first (its segments completed
    // before the OSR fired).
    if (reg.plan)
        flushWindow(reg, thread);

    // Back-edge truncation has the frame mid-path at a header; the old
    // register is meaningless under the new plan, so stop profiling
    // this frame conservatively. Header splitting makes OSR clean: the
    // old version's path just ended at this header, so rebinding to
    // the new version's plan and restarting the register is exactly
    // what a fresh entry through this header would do — unless the new
    // version is not instrumented or the OSR point is not a path
    // boundary under its plan; then stop profiling this frame rather
    // than corrupt the register.
    if (mode_ != profile::DagMode::HeaderSplit || !plan ||
        !plan->headers[header].endsPath) {
        reg.plan = nullptr;
        return;
    }
    reg.plan = plan;
    reg.value = plan->headers[header].restart;
    charge(vm_.params().cost.pathRegResetCost);
}

void
PathEngine::onPathCompleted(vm::PathPlan &plan, std::uint64_t id,
                            std::uint32_t thread)
{
    pathCompleted(static_cast<VersionProfile &>(plan), id, thread);
}

void
PathEngine::pathCompleted(VersionProfile &, std::uint64_t, std::uint32_t)
{
    PEP_PANIC("a profiler that stores completions received a call");
}

} // namespace pep::core
