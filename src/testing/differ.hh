#ifndef PEP_TESTING_DIFFER_HH
#define PEP_TESTING_DIFFER_HH

/**
 * @file
 * The differential checker: run one program through the exact oracle,
 * full BLPP and several PEP sampling configurations — all on the same
 * Machine, hence the same deterministic event stream — then
 * cross-check every pair against the oracle invariants:
 *
 *  1. the oracle's bytecode edge mirror equals the Machine's own
 *     ground-truth edge counts (pins the oracle to the interpreter);
 *  2. full BLPP's number->count table, mapped through the
 *     reconstructor, equals the oracle's segment counts *exactly*;
 *  3. (retired: plans carry one edge table, so there is no second
 *     dispatch to compare it with);
 *  4. every engine agrees on the total number of completed paths;
 *  5. PEP-sampled counts never exceed the oracle's, sum to
 *     samplesRecorded, and the derived edge profile is bounded by
 *     ground truth and flow-conserved at non-header blocks;
 *  6. the edge profile derived from full BLPP is bounded by ground
 *     truth and flow-conserved (at loop headers too while no frame was
 *     dropped mid-path);
 *  7. the switch-dispatch and threaded (pre-decoded template)
 *     execution engines are byte-identical: the same program run on
 *     two otherwise-identical machines, one per engine, produces the
 *     same cycles, stats, ground truth, one-time profile, BLPP path
 *     tables and PEP samples (docs/ENGINE.md determinism contract);
 *  8. (kIterations > 1, docs/KBLPP.md) every comparison above runs
 *     over k-path window ids instead of raw Ball-Larus numbers — the
 *     oracle records literal k-iteration segment concatenations and
 *     the engines' composite ids must reconstruct to *exactly* those
 *     sequences with exactly those counts — and the k=1 degeneracy
 *     check proves the instrumentation layer is untouched: plans
 *     built at k = kIterations are byte-identical to plans built at
 *     k = 1 (k-BLPP is pure post-processing of segment numbers);
 *  9. (optLayout/optClone, docs/OPT.md) for every version the cloning
 *     pass synthesized, the full profiler's cloned-CFG path counts
 *     folded through the version's live BlockOrigin map onto the
 *     original CFG's branches agree *count for count* with the
 *     oracle's literal segments folded through the origin snapshot it
 *     took at compile time — a cloned branch whose counters fold to
 *     the wrong (or no) bytecode-level branch cannot hide.
 *
 * Fault injection (for harness self-tests and CI) deliberately breaks
 * one invariant per run — a corrupted plan increment, a truncated
 * k-path window, an impossible profile, a diverging engine — so the
 * checks above can prove they still catch their bug class.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/method.hh"
#include "profile/instr_plan.hh"
#include "profile/numbering.hh"
#include "profile/pdag.hh"
#include "vm/engine.hh"

namespace pep::testing {

/** One PEP sampling configuration to run alongside the oracle. */
struct PepConfig
{
    std::uint32_t samples = 1;
    std::uint32_t stride = 1;
};

/** Deliberate bug classes the harness can inject into a run. */
enum class InjectKind : std::uint8_t
{
    None,

    /** Bump the first nonzero flat increment by one. */
    CorruptFlatIncrement,

    /** Seed the threaded engine's cross-check machine with a different
     *  Irnd stream than the switch engine's, so the two runs take
     *  different paths. The engine cross-check (check 7) must report
     *  the divergence; the main run's profilers all observe one
     *  consistent event stream and stay clean. */
    EngineDivergence,

    /** Corrupt one count of the first PEP profiler's recorded
     *  continuous edge profile after the run: an edge gains a crossing
     *  no execution could have produced. The dynamic bound/conservation
     *  checks (check 5) and the static realizability pass
     *  (analysis/verify/realizability.hh) must both reject it. */
    ImpossibleProfile,

    /** Threaded differ only (runThreadedDiff): the ring transport
     *  silently discards one of shard 0's samples without bumping the
     *  drop counter — the corrupt-drop-accounting bug class. The
     *  conservation law produced == consumed + dropped (check 5) and
     *  the drop-free ring-vs-mutex identity (check 6) must both
     *  report it. */
    RingLostSample,

    /** k-BLPP only (kIterations > 1): after a warm-up iteration the
     *  full profiler silently drops partial windows at method exit and
     *  OSR instead of emitting them — the truncated-window bug class
     *  (a frame dies and its accumulated segments vanish). The oracle
     *  still counts every window, so the totals check (check 4) and
     *  the missed-path check (check 2) must both report it. */
    TruncatedWindow,
};

/** Name for reports / CLI flags ("none", "corrupt-increment", ...). */
std::string injectKindName(InjectKind kind);

/** Parse an injection name; returns false on unknown names. */
bool parseInjectKind(const std::string &name, InjectKind &out);

/** One differential configuration (profiling modes + VM features). */
struct DiffOptions
{
    std::string name = "headersplit-direct";

    profile::DagMode mode = profile::DagMode::HeaderSplit;
    profile::NumberingScheme scheme = profile::NumberingScheme::BallLarus;
    profile::PlacementKind placement = profile::PlacementKind::Direct;

    bool yieldpointsOnBackEdges = false;
    bool enableOsr = false;
    bool enableInlining = false;

    /**
     * k-BLPP window length (docs/KBLPP.md): every profiler groups up
     * to kIterations consecutive Ball-Larus segments per frame into
     * one composite k-path id, and the oracle records the literal
     * concatenated segment sequences. 1 (the default) is bit-for-bit
     * classic BLPP.
     */
    std::uint32_t kIterations = 1;

    /** Short tick period so sampling/OSR fire on small programs. */
    std::uint64_t tickCycles = 9'000;

    /** Runaway guard: shrink candidates can be verifier-clean infinite
     *  loops; fail them fast instead of spinning for minutes. */
    std::uint64_t maxCyclesPerIteration = 50'000'000;

    std::uint32_t iterations = 3;

    std::vector<PepConfig> pepConfigs = {{1, 1}, {64, 17}};

    /**
     * Install the profile-guided reoptimization pipeline (src/opt/)
     * as a compile pass on every machine of the run — the main one
     * and both engine cross-check machines — feeding on the first PEP
     * configuration's profiler. optLayout enables the Pettis-Hansen
     * chain-layout pass, optClone hot-path cloning (which makes
     * check 9 meaningful). Standard configs default these from the
     * PEP_OPT environment variable when it is set; the clone-*
     * configs pin both on so the optimizer legs run in every sweep.
     */
    bool optLayout = false;
    bool optClone = false;

    /**
     * Fusion selection (docs/ENGINE.md) installed on every machine of
     * the run via Machine::setFuseOptions — superinstruction pairs
     * and/or straightened hot-trace segments in the threaded engine's
     * template streams. Switch dispatch ignores it entirely, so the
     * engine cross-check (check 7) proves fusion is observation-
     * equivalent. The fuse-* standard configs pin these on.
     */
    vm::FuseOptions fuse = {};

    InjectKind inject = InjectKind::None;

    /** Check 7: run the program once per execution engine (switch and
     *  threaded) on otherwise-identical machines and byte-compare
     *  every observable. On for every standard config. */
    bool crossCheckEngines = true;

    /** Run the static verify passes (analysis/verify/) over the
     *  machine, the profilers' plans and every recorded profile at the
     *  end of the run; their error diagnostics become violations. This
     *  is the static mirror of checks 5-7 — on for every standard
     *  config, so the fuzzer continuously proves the static layer
     *  raises no false alarms. */
    bool runStaticVerify = true;
};

/** Result of one differential run. */
struct DiffReport
{
    /** Invariant violations (empty == the run was clean). */
    std::vector<std::string> violations;

    /** Versions that carried an enabled instrumentation plan. */
    std::size_t instrumentedVersions = 0;

    std::uint64_t oracleSegments = 0;
    std::uint64_t blppPaths = 0;
    std::uint64_t pepSamplesRecorded = 0;

    /** Non-fatal observations (skipped checks and why). */
    std::vector<std::string> notes;

    bool ok() const { return violations.empty(); }
};

/** The standard configuration matrix the fuzzer sweeps. */
const std::vector<DiffOptions> &standardConfigs();

/** Look up a standard configuration; nullptr if unknown. */
const DiffOptions *findConfig(const std::string &name);

/** Run one program through one configuration. */
DiffReport runDiff(const bytecode::Program &program,
                   const DiffOptions &opts);

/**
 * One multi-threaded scheduler configuration: a request stream run
 * through the concurrent runtime (runtime/coop_scheduler.hh). Inlining
 * and OSR stay off here — truth-edge recording for inlined frames keeps
 * only branch edges, and scheduling-dependent promotion changes
 * inlining decisions between the interleaved run and the per-thread
 * solo runs, so the oracle sums would not be comparable.
 */
struct ThreadedDiffOptions
{
    std::string name = "coop-k4";

    /** Virtual mutator threads in the cooperative run. */
    std::uint32_t threads = 4;

    /** Seeds the request stream, the Irnd streams, and the scheduler. */
    std::uint64_t seed = 1;

    /** Requests in the generated stream. */
    std::uint32_t requests = 96;

    /** Short tick period so context switches fire on small streams. */
    std::uint64_t tickCycles = 9'000;

    PepConfig pep = {8, 3};

    /** k-BLPP window length for the PEP profiler and the solo oracles
     *  (docs/KBLPP.md); 1 = classic single-segment paths. */
    std::uint32_t kIterations = 1;

    /** Also cross-check sharded vs mutex aggregation (OS threads). */
    bool checkAggregation = true;
    std::uint32_t workers = 3;
    std::uint32_t epochRequests = 16;

    /**
     * Checks 5-6: the SPSC ring transport. An ample-capacity ring run
     * must satisfy sample conservation (produced == consumed +
     * dropped) and, when its drop count is zero, match the mutex
     * baseline count for count; a deliberately tiny ring must still
     * satisfy conservation and stay bounded by the mutex totals
     * (drops remove whole records, they never invent counts).
     * Requires checkAggregation (the mutex run is the reference).
     */
    bool checkRing = true;
    std::uint32_t ringCapacity = 1u << 16;
    std::uint32_t tightRingCapacity = 128;

    /** Only InjectKind::None and RingLostSample are meaningful here. */
    InjectKind inject = InjectKind::None;
};

/** The standard multi-threaded configuration matrix. */
const std::vector<ThreadedDiffOptions> &standardThreadedConfigs();

/** Look up a standard threaded configuration; nullptr if unknown. */
const ThreadedDiffOptions *findThreadedConfig(const std::string &name);

/**
 * Run the concurrent-runtime differential checks:
 *
 *  1. a K-thread cooperative run completes every request, and its PEP
 *     edge profile is bounded by the machine's ground truth;
 *  2. the same run repeated is *byte-identical* (every profile and
 *     scheduler counter serialized and compared);
 *  3. the interleaved run's merged ground-truth edge profile equals
 *     the sum of K per-thread exact-oracle solo runs (thread t replays
 *     its request subsequence alone, same thread id, fresh machine);
 *  4. (optional) sharded and mutex-global aggregation over OS worker
 *     threads produce count-for-count identical edge and path totals;
 *  5. (optional) the ring transport conserves samples — produced ==
 *     consumed + dropped at quiescence, for both ample and tiny rings
 *     (drops must be *counted*, never silent);
 *  6. (optional) a drop-free ring run is count-for-count identical to
 *     mutex aggregation, and a drop-heavy run stays bounded by it.
 */
DiffReport runThreadedDiff(const ThreadedDiffOptions &opts);

/** Render a corpus reproducer: a commented header (config, seed,
 *  injection) followed by the program's assembler text. */
std::string formatCorpusFile(const bytecode::Program &program,
                             const std::string &config,
                             std::uint64_t seed, InjectKind inject,
                             const std::string &violation);

/** Metadata parsed back out of a corpus file. */
struct CorpusHeader
{
    std::string config = "headersplit-direct";
    std::string inject = "none";
    std::uint64_t seed = 0;
};

/** Parse the "; pep-fuzz: ..." header (defaults if absent). */
CorpusHeader parseCorpusHeader(const std::string &source);

} // namespace pep::testing

#endif // PEP_TESTING_DIFFER_HH
