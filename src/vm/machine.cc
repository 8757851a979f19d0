#include "vm/machine.hh"

#include <cmath>

#include "bytecode/verifier.hh"
#include "vm/decoded_method.hh"
#include "vm/inliner.hh"
#include "support/panic.hh"

namespace pep::vm {

MethodInfo
buildMethodInfo(const bytecode::Method &method)
{
    MethodInfo info;
    info.cfg = bytecode::buildCfg(method);
    info.headerLeaderPc.assign(method.code.size(), false);
    info.leaderPc.assign(method.code.size(), false);
    const cfg::Graph &graph = info.cfg.graph;
    for (cfg::BlockId b = 2; b < graph.numBlocks(); ++b) {
        info.leaderPc[info.cfg.firstPc[b]] = true;
        if (info.cfg.isLoopHeader[b])
            info.headerLeaderPc[info.cfg.firstPc[b]] = true;
    }
    info.isBackEdge.resize(graph.numBlocks());
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b)
        info.isBackEdge[b].assign(graph.succs(b).size(), false);
    for (const cfg::EdgeRef &back : info.cfg.backEdges)
        info.isBackEdge[back.src][back.index] = true;
    return info;
}

const char *
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::Baseline:
        return "baseline";
      case OptLevel::Opt1:
        return "opt1";
      case OptLevel::Opt2:
        return "opt2";
    }
    return "<bad>";
}

Machine::Machine(const bytecode::Program &program, const SimParams &params)
    : program_(program), params_(params), rng_(params.rngSeed)
{
    // A zero period would never let the timer catch up with the clock.
    if (params_.tickCycles == 0)
        support::fatal("tick period must be at least one cycle");
    const bytecode::VerifyResult verified =
        bytecode::verifyProgram(program_);
    if (!verified.ok) {
        // Report every diagnostic, not just the legacy first-error
        // view: a program with several defects fails with all of them
        // listed.
        std::string message = "program failed verification:";
        for (const bytecode::VerifyDiagnostic &d : verified.diagnostics)
            message += "\n  " + bytecode::formatVerifyDiagnostic(d);
        support::fatal(message);
    }

    const std::size_t n = program_.methods.size();
    infos_.reserve(n);
    for (const bytecode::Method &method : program_.methods)
        infos_.push_back(buildMethodInfo(method));

    versions_.resize(n);
    decoded_.resize(n);
    methodSamples_.assign(n, 0);

    std::vector<const bytecode::MethodCfg *> cfg_refs;
    cfg_refs.reserve(n);
    for (const MethodInfo &info : infos_)
        cfg_refs.push_back(&info.cfg);
    truth_ = profile::EdgeProfileSet(cfg_refs);
    oneTime_ = profile::EdgeProfileSet(cfg_refs);

    globals_.assign(program_.globalSize, 0);
    std::copy(program_.initialGlobals.begin(),
              program_.initialGlobals.end(), globals_.begin());

    nextTickAt_ = params_.tickCycles;
}

Machine::~Machine() = default;

void
Machine::addHooks(ExecutionHooks *hooks)
{
    PEP_ASSERT(hooks);
    auto *paths = dynamic_cast<PathRegisterHooks *>(hooks);
    if (!paths || pathHooks_ || params_.engine != EngineKind::Threaded) {
        hooks_.push_back(hooks);
        return;
    }
    pathHooks_ = paths;
    // Streams translated so far carry no path-work bits and bind no
    // plan; drop them so each re-translates against its plan.
    for (std::vector<std::unique_ptr<DecodedMethod>> &slots : decoded_)
        slots.clear();
}

void
Machine::addCompileObserver(CompileObserver *observer)
{
    PEP_ASSERT(observer);
    observers_.push_back(observer);
}

void
Machine::setLayoutSource(LayoutSource *source)
{
    layoutSource_ = source;
}

void
Machine::addCompilePass(CompilePass *pass)
{
    PEP_ASSERT(pass);
    compilePasses_.push_back(pass);
}

void
Machine::setScheduler(ThreadScheduler *scheduler)
{
    scheduler_ = scheduler;
}

support::Rng &
Machine::rngForThread(std::uint32_t thread)
{
    if (thread == 0)
        return rng_;
    const std::uint32_t slot = thread - 1;
    if (threadRngs_.size() <= slot)
        threadRngs_.resize(slot + 1);
    if (!threadRngs_[slot]) {
        // Seed each thread's stream from (rngSeed, thread) through a
        // splitmix pass, so streams are decorrelated but still a pure
        // function of the simulation seed.
        std::uint64_t state =
            params_.rngSeed ^ (0x9e3779b97f4a7c15ull * (thread + 1));
        const std::uint64_t derived = support::splitmix64(state);
        threadRngs_[slot] = std::make_unique<support::Rng>(derived);
    }
    return *threadRngs_[slot];
}

void
Machine::enableReplay(const ReplayAdvice *advice)
{
    PEP_ASSERT(advice);
    PEP_ASSERT_MSG(advice->finalLevel.size() == numMethods(),
                   "advice method count mismatch");
    replay_ = true;
    advice_ = advice;
    // The advice supplies the one-time edge profile the optimizing
    // compiler consults (paper Section 5: advice files carry the edge
    // profile produced by baseline-compiled code).
    oneTime_ = advice->oneTimeEdges;
}

const MethodInfo &
Machine::info(bytecode::MethodId m) const
{
    PEP_ASSERT(m < infos_.size());
    return infos_[m];
}

const CompiledMethod *
Machine::currentVersion(bytecode::MethodId m) const
{
    PEP_ASSERT(m < versions_.size());
    if (versions_[m].empty())
        return nullptr;
    return versions_[m].back().get();
}

std::size_t
Machine::numVersions(bytecode::MethodId m) const
{
    PEP_ASSERT(m < versions_.size());
    return versions_[m].size();
}

const CompiledMethod *
Machine::versionAt(bytecode::MethodId m, std::uint32_t version) const
{
    PEP_ASSERT(m < versions_.size());
    if (version >= versions_[m].size())
        return nullptr;
    return versions_[m][version].get();
}

const DecodedMethod *
Machine::decodedAt(bytecode::MethodId m, std::uint32_t version) const
{
    PEP_ASSERT(m < decoded_.size());
    if (version >= decoded_[m].size())
        return nullptr;
    return decoded_[m][version].get();
}

ReplayAdvice
Machine::recordAdvice() const
{
    ReplayAdvice advice;
    advice.finalLevel.reserve(numMethods());
    for (std::size_t m = 0; m < numMethods(); ++m) {
        const CompiledMethod *cm = currentVersion(
            static_cast<bytecode::MethodId>(m));
        advice.finalLevel.push_back(cm ? cm->level : OptLevel::Baseline);
    }
    advice.oneTimeEdges = oneTime_;
    return advice;
}

const CompiledMethod &
Machine::compileNow(bytecode::MethodId m, OptLevel level)
{
    return compile(m, level);
}

const CompiledMethod &
Machine::compile(bytecode::MethodId m, OptLevel level)
{
    const bytecode::Method &method = program_.methods[m];

    auto cm = std::make_unique<CompiledMethod>();
    cm->method = m;
    cm->version = static_cast<std::uint32_t>(versions_[m].size());
    cm->level = level;

    const CostModel &cost = params_.cost;
    std::uint32_t compile_cost_per_instr = 0;
    switch (level) {
      case OptLevel::Baseline:
        cm->speedMultiplier = cost.baselineMultiplier;
        cm->baselineEdgeInstr = true;
        compile_cost_per_instr = cost.baselineCompileCostPerInstr;
        break;
      case OptLevel::Opt1:
        cm->speedMultiplier = cost.opt1Multiplier;
        compile_cost_per_instr = cost.opt1CompileCostPerInstr;
        break;
      case OptLevel::Opt2:
        cm->speedMultiplier = 1.0;
        compile_cost_per_instr = cost.opt2CompileCostPerInstr;
        break;
    }

    // Optimizing tiers may inline small leaf callees.
    if (level != OptLevel::Baseline && params_.enableInlining)
        cm->inlinedBody = inlineLeafCalls(program_, m);

    cm->scaledCost.resize(bytecode::kNumOpcodes);
    for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op) {
        const auto base =
            cost.instrCost(static_cast<bytecode::Opcode>(op));
        cm->scaledCost[op] = static_cast<std::uint32_t>(
            std::llround(base * cm->speedMultiplier));
    }

    const bytecode::MethodCfg &version_cfg =
        cm->inlinedBody ? cm->inlinedBody->info.cfg : infos_[m].cfg;
    cm->branchLayout.assign(version_cfg.graph.numBlocks(), -1);
    if (level != OptLevel::Baseline)
        applyLayout(*cm);

    // Charge compilation time.
    const std::uint64_t compile_cycles =
        static_cast<std::uint64_t>(compile_cost_per_instr) *
        method.code.size();
    cycles_ += compile_cycles;
    stats_.compileCycles += compile_cycles;
    ++stats_.compiles;

    // Compiler passes (src/opt/) are the last code that may change the
    // version: it is installed immutable right after them.
    if (level != OptLevel::Baseline) {
        for (CompilePass *pass : compilePasses_)
            pass->run(*this, *cm);
    }

    versions_[m].push_back(std::move(cm));
    const CompiledMethod &result = *versions_[m].back();

    // Let profilers instrument opt-tier code (they charge their own
    // pass cost).
    if (level != OptLevel::Baseline) {
        for (CompileObserver *observer : observers_)
            observer->onCompile(m, result);
    }

    // Threaded engine: translate at install time — after the observers
    // built the version's plan — so invocation and OSR never hit the
    // lazy path mid-run.
    if (params_.engine == EngineKind::Threaded)
        decodedFor(result);
    return result;
}

const DecodedMethod &
Machine::decodedFor(const CompiledMethod &cm)
{
    PEP_ASSERT(cm.method < decoded_.size());
    std::vector<std::unique_ptr<DecodedMethod>> &slots =
        decoded_[cm.method];
    if (slots.size() <= cm.version)
        slots.resize(cm.version + 1);
    std::unique_ptr<DecodedMethod> &slot = slots[cm.version];
    if (!slot) {
        const bytecode::Method &code =
            cm.inlinedBody ? cm.inlinedBody->method
                           : program_.methods[cm.method];
        const MethodInfo &info =
            cm.inlinedBody ? cm.inlinedBody->info : infos_[cm.method];
        slot = std::make_unique<DecodedMethod>(translateMethod(
            code, info, cm, params_.fuse, inlinePlanFor(cm)));
        ++stats_.methodsDecoded;
    }
    return *slot;
}

void
Machine::applyLayout(CompiledMethod &cm)
{
    const bytecode::MethodCfg &method_cfg =
        cm.inlinedBody ? cm.inlinedBody->info.cfg
                       : infos_[cm.method].cfg;

    // Profiles are kept per bytecode-level branch of the *original*
    // methods; inlined blocks reach them through their origin records
    // (Section 4.3: several compiled branches may share one
    // bytecode-level branch's counters).
    auto profile_for =
        [&](bytecode::MethodId m) -> const profile::MethodEdgeProfile * {
        if (layoutSource_)
            return layoutSource_->layoutProfile(m);
        const profile::MethodEdgeProfile &one_time = oneTime_.perMethod[m];
        return one_time.totalCount() > 0 ? &one_time : nullptr;
    };
    auto origin_of = [&](cfg::BlockId b) {
        if (cm.inlinedBody)
            return cm.inlinedBody->blockOrigin[b];
        return BlockOrigin{cm.method, b};
    };

    const cfg::Graph &graph = method_cfg.graph;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        const auto kind = method_cfg.terminator[b];
        if (kind != bytecode::TerminatorKind::Cond &&
            kind != bytecode::TerminatorKind::Switch) {
            continue;
        }
        const BlockOrigin origin = origin_of(b);
        if (!origin.valid())
            continue;
        const profile::MethodEdgeProfile *profile =
            profile_for(origin.method);
        if (!profile)
            continue;
        if (kind == bytecode::TerminatorKind::Cond) {
            const profile::BranchCounts counts =
                profile->branch(origin.block);
            if (counts.total() == 0)
                continue;
            cm.branchLayout[b] = counts.taken > counts.notTaken ? 1 : 0;
        } else {
            // Lay out for the hottest successor.
            std::uint64_t best = 0;
            std::int16_t best_idx = -1;
            const auto &edge_counts = profile->counts()[origin.block];
            for (std::size_t i = 0; i < edge_counts.size(); ++i) {
                if (edge_counts[i] > best) {
                    best = edge_counts[i];
                    best_idx = static_cast<std::int16_t>(i);
                }
            }
            cm.branchLayout[b] = best_idx;
        }
    }
}

void
Machine::methodSample(bytecode::MethodId m)
{
    if (replay_)
        return;
    ++methodSamples_[m];
}

OptLevel
Machine::targetLevel(bytecode::MethodId m) const
{
    if (replay_)
        return advice_->finalLevel[m];
    const std::uint32_t samples = methodSamples_[m];
    if (samples >= params_.opt2SampleThreshold)
        return OptLevel::Opt2;
    if (samples >= params_.opt1SampleThreshold)
        return OptLevel::Opt1;
    return OptLevel::Baseline;
}

} // namespace pep::vm
