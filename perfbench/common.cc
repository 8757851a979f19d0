#include "common.hh"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "profile/path_profile.hh"

extern char **environ;

namespace perfbench {

const char *
profName(Prof prof)
{
    switch (prof) {
      case Prof::None: return "none";
      case Prof::Empty: return "empty-hook";
      case Prof::Never: return "pep-never-sample";
      case Prof::Pep: return "pep(64,17)";
      case Prof::Blpp: return "blpp";
    }
    return "?";
}

std::string
Config::name() const
{
    std::string name = std::string(vm::engineKindName(engine)) + "/" +
                       vm::fuseOptionsName(fuse) + "/" + profName(prof);
    if (pipeline)
        name += "+pipeline";
    if (counted)
        name += "+counted";
    return name;
}

vm::SimParams
pinnedParams(const Config &config, vm::SimParams base)
{
    base.engine = config.engine;
    base.fuse = config.fuse;
    return base;
}

void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env; ++env) {
        const std::string entry(*env);
        const std::string name = entry.substr(0, entry.find('='));
        if (name == "PEP_ENGINE" || name == "PEP_FUSE" ||
            name == "PEP_OPT" || name == "PEP_KITER" ||
            name.rfind("PEP_BENCH_", 0) == 0) {
            names.push_back(name);
        }
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

// ---- hooks ----------------------------------------------------------------

void
CountingHooks::onMethodEntry(const vm::FrameView &frame)
{
    ++entries;
    if (inner_)
        inner_->onMethodEntry(frame);
}

void
CountingHooks::onMethodExit(const vm::FrameView &frame)
{
    if (inner_)
        inner_->onMethodExit(frame);
}

void
CountingHooks::onEdge(const vm::FrameView &frame, cfg::EdgeRef edge)
{
    ++edges;
    if (inner_)
        inner_->onEdge(frame, edge);
}

void
CountingHooks::onEdgeFast(const vm::FrameView &frame, cfg::EdgeRef edge,
                          std::uint32_t flat_id)
{
    ++edges;
    if (inner_)
        inner_->onEdgeFast(frame, edge, flat_id);
}

void
CountingHooks::onLoopHeader(const vm::FrameView &frame, cfg::BlockId block)
{
    if (inner_)
        inner_->onLoopHeader(frame, block);
}

void
CountingHooks::onYieldpoint(const vm::FrameView &frame,
                            vm::YieldpointKind kind, bool tick_fired)
{
    ++yieldpoints;
    if (inner_)
        inner_->onYieldpoint(frame, kind, tick_fired);
}

void
CountingHooks::onOsr(const vm::FrameView &frame, cfg::BlockId header)
{
    if (inner_)
        inner_->onOsr(frame, header);
}

void
TimedPass::run(vm::Machine &machine, vm::CompiledMethod &cm)
{
    const Clock::time_point start = Clock::now();
    inner_.run(machine, cm);
    seconds += secondsSince(start);
    ++runs;
}

// ---- rig --------------------------------------------------------------------

void
Counters::add(const Counters &o)
{
    instructions += o.instructions;
    invocations += o.invocations;
    cycles += o.cycles;
    compiles += o.compiles;
    methodsDecoded += o.methodsDecoded;
    edges += o.edges;
    yieldpoints += o.yieldpoints;
    pathsCompleted += o.pathsCompleted;
    samplesTaken += o.samplesTaken;
    samplesRecorded += o.samplesRecorded;
    firstTimeExpansions += o.firstTimeExpansions;
    pipelineRuns += o.pipelineRuns;
    layoutsApplied += o.layoutsApplied;
    clonesApplied += o.clonesApplied;
    pipelineSeconds += o.pipelineSeconds;
}

Counters
minus(const Counters &a, const Counters &b)
{
    Counters d;
    d.instructions = a.instructions - b.instructions;
    d.invocations = a.invocations - b.invocations;
    d.cycles = a.cycles - b.cycles;
    d.compiles = a.compiles - b.compiles;
    d.methodsDecoded = a.methodsDecoded - b.methodsDecoded;
    d.edges = a.edges - b.edges;
    d.yieldpoints = a.yieldpoints - b.yieldpoints;
    d.pathsCompleted = a.pathsCompleted - b.pathsCompleted;
    d.samplesTaken = a.samplesTaken - b.samplesTaken;
    d.samplesRecorded = a.samplesRecorded - b.samplesRecorded;
    d.firstTimeExpansions = a.firstTimeExpansions - b.firstTimeExpansions;
    d.pipelineRuns = a.pipelineRuns - b.pipelineRuns;
    d.layoutsApplied = a.layoutsApplied - b.layoutsApplied;
    d.clonesApplied = a.clonesApplied - b.clonesApplied;
    d.pipelineSeconds = a.pipelineSeconds - b.pipelineSeconds;
    return d;
}

Rig::Rig(const bytecode::Program &program, const Config &config,
         const vm::SimParams &base, const vm::ReplayAdvice *advice)
{
    machine_ = std::make_unique<vm::Machine>(program,
                                             pinnedParams(config, base));
    if (advice)
        machine_->enableReplay(advice);

    vm::ExecutionHooks *hooks = nullptr;
    switch (config.prof) {
      case Prof::None:
        break;
      case Prof::Empty:
        empty_ = std::make_unique<EmptyHooks>();
        hooks = empty_.get();
        break;
      case Prof::Never:
      case Prof::Pep: {
        if (config.prof == Prof::Never) {
            controller_ = std::make_unique<core::NeverSample>();
        } else {
            controller_ = std::make_unique<core::SimplifiedArnoldGrove>(
                kPepSamples, kPepStride);
        }
        core::PepOptions options;
        options.scheme = profile::NumberingScheme::Smart;
        options.mode = profile::DagMode::HeaderSplit;
        options.placement = profile::PlacementKind::Direct;
        options.kIterations = kKIterations;
        pep_ = std::make_unique<core::PepProfiler>(*machine_, *controller_,
                                                   options);
        machine_->addCompileObserver(pep_.get());
        hooks = pep_.get();
        if (config.pipeline) {
            machine_->setLayoutSource(pep_.get());
            consumer_ = std::make_unique<opt::PepConsumer>(*pep_);
            opt::PipelineOptions pipeline_options;
            pipeline_options.layout = true;
            pipeline_options.clone = true;
            pipeline_ = std::make_unique<opt::OptPipeline>(
                *consumer_, pipeline_options);
            timedPass_ = std::make_unique<TimedPass>(*pipeline_);
            machine_->addCompilePass(timedPass_.get());
        }
        break;
      }
      case Prof::Blpp:
        blpp_ = std::make_unique<core::FullPathProfiler>(
            *machine_, profile::DagMode::BackEdgeTruncate,
            /*charge_costs=*/true, profile::NumberingScheme::BallLarus,
            core::PathStoreKind::Array);
        machine_->addCompileObserver(blpp_.get());
        hooks = blpp_.get();
        break;
    }
    if (config.counted) {
        counting_ = std::make_unique<CountingHooks>(hooks);
        hooks = counting_.get();
    }
    if (hooks)
        machine_->addHooks(hooks);
}

Counters
Rig::counters() const
{
    Counters c;
    const vm::MachineStats &stats = machine_->stats();
    c.instructions = stats.instructionsExecuted;
    c.invocations = stats.methodInvocations;
    c.cycles = machine_->now();
    c.compiles = stats.compiles;
    c.methodsDecoded = stats.methodsDecoded;
    if (counting_) {
        c.edges = counting_->edges;
        c.yieldpoints = counting_->yieldpoints;
    }
    if (pep_) {
        const core::PepStats &pep = pep_->pepStats();
        c.pathsCompleted = pep.pathsCompleted;
        c.samplesTaken = pep.samplesTaken;
        c.samplesRecorded = pep.samplesRecorded;
        c.firstTimeExpansions = pep.firstTimeExpansions;
    }
    if (pipeline_) {
        c.pipelineRuns = timedPass_->runs;
        c.pipelineSeconds = timedPass_->seconds;
        c.layoutsApplied = pipeline_->stats().layoutsApplied;
        c.clonesApplied = pipeline_->stats().clonesApplied;
    }
    return c;
}

// ---- latency histogram ----------------------------------------------------

namespace {

constexpr double kHistogramMin = 0.01; // microseconds
const double kLogGrowth = std::log(1.001);

} // namespace

void
LatencyHistogram::add(double micros)
{
    const double scaled = std::max(micros, kHistogramMin) / kHistogramMin;
    const auto index = static_cast<std::size_t>(std::log(scaled) / kLogGrowth);
    if (index >= buckets_.size())
        buckets_.resize(index + 1, 0);
    ++buckets_[index];
    ++count_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(count_))),
        1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            return kHistogramMin *
                   std::exp((static_cast<double>(i) + 0.5) * kLogGrowth);
        }
    }
    return 0.0;
}

// ---- tracer -----------------------------------------------------------------

int
Tracer::begin(const std::string &name, int parent)
{
    Span span;
    span.name = name;
    span.start = secondsSince(origin_);
    span.parent = parent;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
}

bool
Tracer::write(const std::string &path) const
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d}%s\n",
                     i, s.name.c_str(), s.start, s.end, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
}

// ---- report -----------------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
}

std::string
Report::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    char buffer[64];
    for (const auto &[name, entry] : metrics_) {
        const double value = std::isfinite(entry.first) ? entry.first : 0.0;
        std::snprintf(buffer, sizeof buffer, "%.17g", value);
        out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << buffer << ", \"unit\": \"" << entry.second << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 over the pair: distinct salts give unrelated streams.
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x == 0 ? 1 : x;
}

// ---- host ---------------------------------------------------------------------

double
peakRssMb()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(status);
    return kb / 1024.0;
}

std::uint32_t
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

// ---- probes -------------------------------------------------------------------

double
probeLoadMs(const std::vector<const bytecode::Program *> &programs,
            Tracer &tracer)
{
    const vm::SimParams params = pinnedParams(Config{});
    std::vector<double> ms;
    for (const bytecode::Program *program : programs) {
        const int span = tracer.begin("vm.load");
        const Clock::time_point start = Clock::now();
        const vm::Machine machine(*program, params);
        ms.push_back(secondsSince(start) * 1e3);
        tracer.end(span);
    }
    return median(ms);
}

void
probeCompile(const std::vector<const bytecode::Program *> &programs,
             Tracer &tracer, double &compile_us, double &translate_us)
{
    Config switch_config;
    switch_config.engine = vm::EngineKind::Switch;
    switch_config.fuse = vm::FuseOptions{};
    double switch_total = 0.0;
    double threaded_total = 0.0;
    std::uint64_t compiles = 0;
    for (const bytecode::Program *program : programs) {
        for (const Config &config : {switch_config, Config{}}) {
            vm::Machine machine(*program, pinnedParams(config));
            const bool threaded = config.engine == vm::EngineKind::Threaded;
            for (std::size_t m = 0; m < machine.numMethods(); ++m) {
                const int span = tracer.begin(
                    threaded ? "vm.compile.threaded" : "vm.compile.switch");
                const Clock::time_point start = Clock::now();
                machine.compileNow(static_cast<bytecode::MethodId>(m),
                                   vm::OptLevel::Opt2);
                const double seconds = secondsSince(start);
                tracer.end(span);
                (threaded ? threaded_total : switch_total) += seconds;
                if (!threaded)
                    ++compiles;
            }
        }
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(1, compiles));
    compile_us = switch_total / n * 1e6;
    translate_us = (threaded_total - switch_total) / n * 1e6;
}

double
probePlanBuild(const std::vector<const bytecode::Program *> &programs,
               Tracer &tracer)
{
    double total = 0.0;
    std::uint64_t builds = 0;
    for (const bytecode::Program *program : programs) {
        for (std::size_t m = 0; m < program->methods.size(); ++m) {
            const vm::MethodInfo info =
                vm::buildMethodInfo(program->methods[m]);
            const int span = tracer.begin("profile.plan_build");
            const Clock::time_point start = Clock::now();
            const auto state = core::buildProfilingState(
                info.cfg, static_cast<bytecode::MethodId>(m), 0,
                profile::DagMode::HeaderSplit,
                profile::NumberingScheme::Smart, nullptr,
                profile::PlacementKind::Direct, kKIterations);
            total += secondsSince(start);
            tracer.end(span);
            ++builds;
        }
    }
    return builds ? total / static_cast<double>(builds) * 1e6 : 0.0;
}

void
probeExpansion(core::PathEngine &engine, Tracer &tracer, double &seconds,
               std::uint64_t &paths)
{
    for (const auto &[key, vp] : engine.versionProfiles()) {
        const core::MethodProfilingState &state = *vp->state;
        if (!state.reconstructor)
            continue; // numbering overflowed: nothing was instrumented
        for (const auto &[number, record] : vp->paths.paths()) {
            (void)record;
            profile::PathRecord fresh;
            const int span = tracer.begin("profile.expand");
            const Clock::time_point start = Clock::now();
            profile::expandRecord(fresh, *state.reconstructor, number,
                                  &state.kpath);
            seconds += secondsSince(start);
            tracer.end(span);
            ++paths;
        }
    }
}

void
reportNoRuntime(Report &report)
{
    for (const char *name :
         {"runtime.records_per_request", "runtime.shard_flushes"})
        report.metric(name, 0.0, "count");
    report.metric("runtime.record_ns", 0.0, "ns");
    report.metric("runtime.flush_us", 0.0, "us");
    report.metric("runtime.ring_req_per_s", 0.0, "1/s");
    report.metric("runtime.ring_drop_rate", 0.0, "fraction");
    report.metric("runtime.ring_staleness_epochs", 0.0, "epochs");
}

bool
sameBranchCounts(const vm::Machine &machine, const profile::EdgeProfileSet &a,
                 const profile::EdgeProfileSet &b)
{
    if (a.perMethod.size() != machine.numMethods() ||
        b.perMethod.size() != machine.numMethods())
        return false;
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        const bytecode::MethodCfg &method_cfg =
            machine.info(static_cast<bytecode::MethodId>(m)).cfg;
        const auto &ca = a.perMethod[m].counts();
        const auto &cb = b.perMethod[m].counts();
        for (std::size_t block = 0; block < method_cfg.terminator.size();
             ++block) {
            const bytecode::TerminatorKind kind = method_cfg.terminator[block];
            if ((kind == bytecode::TerminatorKind::Cond ||
                 kind == bytecode::TerminatorKind::Switch) &&
                ca[block] != cb[block])
                return false;
        }
    }
    return true;
}

bool
sameEdges(const profile::EdgeProfileSet &a, const profile::EdgeProfileSet &b)
{
    if (a.perMethod.size() != b.perMethod.size())
        return false;
    for (std::size_t m = 0; m < a.perMethod.size(); ++m) {
        if (a.perMethod[m].counts() != b.perMethod[m].counts())
            return false;
    }
    return true;
}

} // namespace perfbench
