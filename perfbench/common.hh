#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

/**
 * @file
 * Shared pieces of the wall-clock benchmark: the pinned configuration,
 * the profiler ladder, the counting hook wrapper, the span tracer, the
 * workload interface every workload implements, and the report that
 * prints metrics as one JSON line.
 *
 * A workload runs *operations* (one program's iteration, one request,
 * one cold program run) under several configurations, interleaved per
 * operation so that machine noise hits every configuration alike.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bytecode/method.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "support/stats.hh"
#include "vm/machine.hh"

namespace perfbench {

using namespace pep;
using support::geomean;
using support::mean;
using support::median;

/** The measured configuration: PEP(64,17) with Smart numbering, k=1,
 *  on the threaded engine with superinstruction pairs. */
inline constexpr std::uint32_t kPepSamples = 64;
inline constexpr std::uint32_t kPepStride = 17;
inline constexpr std::uint32_t kKIterations = 1;

/** Profiler attached to a configuration: the overhead ladder. */
enum class Prof : std::uint8_t
{
    None,  ///< no hooks
    Empty, ///< one hook whose handlers do nothing (hook fan-out)
    Never, ///< PEP instrumentation, NeverSample controller
    Pep,   ///< PEP(64,17)
    Blpp,  ///< classic BLPP: back-edge paths, array store, every path
};

const char *profName(Prof prof);

/** One configuration a workload runs its operations under. */
struct Config
{
    vm::EngineKind engine = vm::EngineKind::Threaded;
    vm::FuseOptions fuse{/*pairs=*/true, /*traces=*/false};
    Prof prof = Prof::None;

    /** Wrap the hooks in the counting forwarder (traced runs only). */
    bool counted = false;

    /** With Prof::Pep: PEP is also the layout source and feeds an
     *  opt::OptPipeline (layout, clone) through opt::PepConsumer. */
    bool pipeline = false;

    std::string name() const;
};

/** `base` with the environment-derived fields pinned to `config`. */
vm::SimParams pinnedParams(const Config &config,
                           vm::SimParams base = vm::SimParams{});

/** Ignore PEP_ENGINE, PEP_FUSE, PEP_OPT, PEP_KITER and PEP_BENCH_*. */
void scrubEnvironment();

/** Hooks that do nothing: the cost of dispatching one more hook. */
class EmptyHooks final : public vm::ExecutionHooks
{
  public:
    void
    onEdgeFast(const vm::FrameView &, cfg::EdgeRef,
               std::uint32_t) override
    {
    }
};

/**
 * Forwards every event to an inner hook (or none) and counts it. No
 * clocks: per-event wall time comes from the ladder, not from here.
 */
class CountingHooks final : public vm::ExecutionHooks
{
  public:
    explicit CountingHooks(vm::ExecutionHooks *inner) : inner_(inner) {}

    void onMethodEntry(const vm::FrameView &frame) override;
    void onMethodExit(const vm::FrameView &frame) override;
    void onEdge(const vm::FrameView &frame, cfg::EdgeRef edge) override;
    void onEdgeFast(const vm::FrameView &frame, cfg::EdgeRef edge,
                    std::uint32_t flat_id) override;
    void onLoopHeader(const vm::FrameView &frame,
                      cfg::BlockId block) override;
    void onYieldpoint(const vm::FrameView &frame, vm::YieldpointKind kind,
                      bool tick_fired) override;
    void onOsr(const vm::FrameView &frame, cfg::BlockId header) override;

    std::uint64_t edges = 0;
    std::uint64_t yieldpoints = 0;
    std::uint64_t entries = 0;

  private:
    vm::ExecutionHooks *inner_;
};

/** Counters a workload accumulates per configuration per round. */
struct Counters
{
    std::uint64_t instructions = 0;
    std::uint64_t invocations = 0;
    std::uint64_t cycles = 0;
    std::uint64_t compiles = 0;
    std::uint64_t methodsDecoded = 0;
    std::uint64_t edges = 0;       ///< counted configs only
    std::uint64_t yieldpoints = 0; ///< counted configs only
    std::uint64_t pathsCompleted = 0;
    std::uint64_t samplesTaken = 0;
    std::uint64_t samplesRecorded = 0;
    std::uint64_t firstTimeExpansions = 0;
    std::uint64_t pipelineRuns = 0;
    std::uint64_t layoutsApplied = 0;
    std::uint64_t clonesApplied = 0;
    double pipelineSeconds = 0.0;

    void add(const Counters &other);
};

/** Forwards a compile pass and times each run (opt.pipeline_us). */
class TimedPass final : public vm::CompilePass
{
  public:
    explicit TimedPass(vm::CompilePass &inner) : inner_(inner) {}

    void run(vm::Machine &machine, vm::CompiledMethod &cm) override;

    std::uint64_t runs = 0;
    double seconds = 0.0;

  private:
    vm::CompilePass &inner_;
};

/**
 * A machine plus the profiler a configuration attaches to it. The
 * controller, profiler and counting wrapper live as long as the rig.
 */
class Rig
{
  public:
    /** `base` supplies every parameter but the engine and fusion,
     *  which come from `config`; `advice` (not owned, may be null)
     *  selects replay compilation. */
    Rig(const bytecode::Program &program, const Config &config,
        const vm::SimParams &base = vm::SimParams{},
        const vm::ReplayAdvice *advice = nullptr);

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    vm::Machine &machine() { return *machine_; }
    core::PepProfiler *pep() { return pep_.get(); }

    /** Machine, PEP and hook counters so far (cumulative). */
    Counters counters() const;

  private:
    std::unique_ptr<vm::Machine> machine_;
    std::unique_ptr<core::SamplingController> controller_;
    std::unique_ptr<core::PepProfiler> pep_;
    std::unique_ptr<core::FullPathProfiler> blpp_;
    std::unique_ptr<EmptyHooks> empty_;
    std::unique_ptr<CountingHooks> counting_;
    std::unique_ptr<opt::PepConsumer> consumer_;
    std::unique_ptr<opt::OptPipeline> pipeline_;
    std::unique_ptr<TimedPass> timedPass_;
};

/** a - b, field by field (for cumulative counters). */
Counters minus(const Counters &a, const Counters &b);

/**
 * Operation latencies in log-spaced buckets 0.1% wide: memory stays
 * bounded however many operations a run times, and percentiles are
 * exact to within a bucket.
 */
class LatencyHistogram
{
  public:
    void add(double micros);
    void merge(const LatencyHistogram &other);
    std::uint64_t count() const { return count_; }

    /** Nearest-rank percentile (p in [0, 100]), as the bucket's
     *  geometric midpoint; 0 when empty. */
    double percentile(double p) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

/** One configuration's share of a round. */
struct Sample
{
    double wall = 0.0;
    Counters counters;

    /** Wall seconds per operation group (program or client). */
    std::vector<double> groupWall;

    /** Per-operation latency in microseconds. */
    LatencyHistogram ops;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Spans around the calls into each layer, kept in memory and written
 * out when the benchmark ends. Timestamps are seconds since the tracer
 * was created.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    /** Open a span; returns its id. */
    int begin(const std::string &name, int parent = -1);
    void end(int id);

    /** Write all spans as JSON; returns false if the file can't open. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Metrics by name with units, plus the correctness tally. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** One checked output: a mismatch prints `what` and counts as a
     *  failed operation. */
    void check(bool ok, const std::string &what);

    std::uint64_t failed() const { return failed_; }

    /** The final JSON line. */
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Command-line options of the benchmark binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Tiny inputs for the self-test. */
    bool tiny = false;

    /** Run the reference interpreter on perturbed inputs, so the
     *  output checks must fail (self-test of the checks). */
    bool injectDivergence = false;

    std::string traceOut;
};

/** Derive a child seed from the benchmark seed and a salt. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** The workload interface the measurement loop drives. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs and build and warm a rig per configuration.
     *  Everything here counts as set-up time. */
    virtual void setup(const std::vector<Config> &configs,
                       Tracer &tracer) = 0;

    /** Run every operation once under each configuration of setup(),
     *  interleaved per operation; one Sample per configuration. Checks
     *  that every configuration produced the same observables. */
    virtual std::vector<Sample> round(Report &report) = 0;

    /** Untimed: the deterministic end-to-end metrics (cycle_ratio,
     *  edge_overlap, path_accuracy) and every output check. */
    virtual void verify(Report &report) = 0;

    /** One measurement of operations completed per second, taken
     *  after a round (`samples` is its result). */
    virtual double throughputRep(const std::vector<Sample> &samples,
                                 Report &report) = 0;

    /** The programs the workload loads (for the per-layer probes). */
    virtual std::vector<const bytecode::Program *> programs() const = 0;

    /** Workload-specific per-layer metrics (traced runs). */
    virtual void layerProbes(Report &report, Tracer &tracer) = 0;
};

std::unique_ptr<Workload> makeReplay(const Options &options);
std::unique_ptr<Workload> makeServe(const Options &options);
std::unique_ptr<Workload> makeStartup(const Options &options);

// ---- host -------------------------------------------------------------

/** Peak resident set size in MiB (VmHWM). */
double peakRssMb();

/** CPUs this process may run on. */
std::uint32_t usableCpus();

// ---- probes shared by every workload (traced runs) ---------------------

/** Machine construction (verify + CFG) per program, milliseconds. */
double probeLoadMs(const std::vector<const bytecode::Program *> &programs,
                   Tracer &tracer);

/** Per-compileNow microseconds at Opt2 on the switch engine, and the
 *  extra per compile on the threaded engine (translation). */
void probeCompile(const std::vector<const bytecode::Program *> &programs,
                  Tracer &tracer, double &compile_us,
                  double &translate_us);

/** core::buildProfilingState microseconds per method. */
double probePlanBuild(const std::vector<const bytecode::Program *> &programs,
                      Tracer &tracer);

/** Re-run path->edge reconstruction over every distinct path an engine
 *  collected; adds the time and the number of paths. */
void probeExpansion(core::PathEngine &engine, Tracer &tracer,
                    double &seconds, std::uint64_t &paths);

/** The runtime-layer metrics, zero: the workload never enters
 *  src/runtime (only `serve` does). */
void reportNoRuntime(Report &report);

/** True if two truth profiles agree on every conditional and switch
 *  edge of the machine's bytecode CFGs. */
bool sameBranchCounts(const vm::Machine &machine,
                      const profile::EdgeProfileSet &a,
                      const profile::EdgeProfileSet &b);

/** True if two edge-profile sets hold identical counts. */
bool sameEdges(const profile::EdgeProfileSet &a,
               const profile::EdgeProfileSet &b);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
