#ifndef PEP_VM_MACHINE_HH
#define PEP_VM_MACHINE_HH

/**
 * @file
 * The virtual machine: loads a verified program, owns per-method CFGs
 * and compiled versions, charges simulated cycles, fires timer ticks,
 * drives adaptive or replay compilation, and runs the interpreter.
 *
 * Methodology support mirrors the paper (Section 5):
 *  - *adaptive*: methods start at Baseline (slow, with one-time edge
 *    instrumentation); timer-tick method samples at yieldpoints promote
 *    hot methods to Opt1 then Opt2, applied at the method's next
 *    invocation.
 *  - *replay*: an advice recording from a previous adaptive run fixes
 *    each method's final optimization level and supplies the recorded
 *    one-time edge profile; each method is compiled at its final level
 *    on first invocation. Iteration 1 of a replay run includes compile
 *    cost (paper Figure 7); iteration 2 measures execution only
 *    (Figures 6, 8-10).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "bytecode/method.hh"
#include "profile/edge_profile.hh"
#include "support/rng.hh"
#include "vm/compiled_method.hh"
#include "vm/cost_model.hh"
#include "vm/engine.hh"
#include "vm/hooks.hh"

namespace pep::vm {

struct DecodedMethod;

/** Simulation parameters. */
struct SimParams
{
    CostModel cost;

    /**
     * Execution engine (docs/ENGINE.md). Defaults from the PEP_ENGINE
     * environment variable so the suite can be swept under either
     * backend; both produce byte-identical observable behaviour.
     */
    EngineKind engine = defaultEngineKind();

    /**
     * Template-fusion selection for the threaded engine
     * (docs/ENGINE.md). Defaults from PEP_FUSE; purely a translation
     * choice — observables stay byte-identical across the full
     * PEP_ENGINE x PEP_FUSE matrix. Fixed for the machine's lifetime,
     * so every cached template stream was translated under it.
     */
    FuseOptions fuse = defaultFuseOptions();

    /** Timer tick period in cycles (the paper's ~20 ms interrupt);
     *  the Machine rejects 0 with fatal(). */
    std::uint64_t tickCycles = 2'500'000;

    /** Method samples before promotion to Opt1 / Opt2 (adaptive). */
    std::uint32_t opt1SampleThreshold = 3;
    std::uint32_t opt2SampleThreshold = 8;

    /**
     * On-stack replacement: when a tick finds a frame whose method has
     * a pending promotion, recompile and switch the frame at the next
     * loop-header yieldpoint instead of waiting for the next
     * invocation (Jikes RVM does this; off by default to match the
     * paper's description of recompilation).
     */
    bool enableOsr = false;

    /**
     * Place loop yieldpoints on back edges instead of loop headers —
     * the alternative the paper mentions in Section 3.2 ("We could
     * avoid this difference by modifying Jikes RVM to place
     * yieldpoints on back edges rather than headers"). Profilers that
     * sample at yieldpoints should then use
     * profile::DagMode::BackEdgeTruncate.
     */
    bool yieldpointsOnBackEdges = false;

    /**
     * Inline small leaf callees when compiling at optimizing tiers.
     * After inlining, several compiled branches map to one
     * bytecode-level branch; profiles use the shared counters
     * (Section 4.3). Off by default, like the paper's configuration.
     * The size and site limits are vm/inliner.hh's constants.
     */
    bool enableInlining = false;

    /** Maximum interpreter call depth before fatal(). */
    std::uint32_t maxCallDepth = 4000;

    /** Cycle budget per iteration before fatal() (runaway guard). */
    std::uint64_t maxCyclesPerIteration = 50'000'000'000ull;

    /** Seed of the Irnd instruction's stream. */
    std::uint64_t rngSeed = 0x5eed;
};

/** Recorded compilation decisions for replay (paper's advice files). */
struct ReplayAdvice
{
    /** Final optimization level of each method. */
    std::vector<OptLevel> finalLevel;

    /** The one-time edge profile recorded from baseline code. */
    profile::EdgeProfileSet oneTimeEdges;
};

/**
 * Supplies the edge profile used for layout decisions when a method is
 * (re)compiled at an optimizing level. The default source is the VM's
 * one-time baseline profile; benchmarks substitute perfect-continuous,
 * flipped, or PEP-continuous sources (Figures 10-11).
 */
class LayoutSource
{
  public:
    virtual ~LayoutSource() = default;

    /** Profile for the method, or nullptr for "no information". */
    virtual const profile::MethodEdgeProfile *
    layoutProfile(bytecode::MethodId method) = 0;
};

class Machine;

/**
 * A compiler pass over a freshly compiled optimizing-tier version
 * (src/opt/ implements the real ones). Passes run inside
 * Machine::compile() after the built-in layout predictor and *before*
 * the version is installed, observed or translated, so whatever they
 * change — branchLayout, a cloned inlinedBody — is part of the version
 * the engines execute from the first instruction. Installed versions
 * are immutable: a pass is the last code that can change one.
 */
class CompilePass
{
  public:
    virtual ~CompilePass() = default;

    /** Transform one freshly compiled version in place. */
    virtual void run(Machine &machine, CompiledMethod &cm) = 0;
};

/** Static, per-method data the VM derives once at load time. */
struct MethodInfo
{
    bytecode::MethodCfg cfg;

    /** Per pc: true if it is the first pc of a loop-header block. */
    std::vector<bool> headerLeaderPc;

    /** Per pc: true if it is the first pc of any block. */
    std::vector<bool> leaderPc;

    /** Per CFG edge, parallel to successor lists: true for back
     *  (retreating) edges. */
    std::vector<std::vector<bool>> isBackEdge;
};

/** Build the execution tables for one method (CFG, leader/header pc
 *  maps, back-edge marks). Used for loaded methods, inlined bodies,
 *  and standalone analysis of synthesized code. */
MethodInfo buildMethodInfo(const bytecode::Method &method);

/** Counters the benchmarks read after a run. */
struct MachineStats
{
    std::uint64_t instructionsExecuted = 0;
    std::uint64_t methodInvocations = 0;
    std::uint64_t yieldpointsExecuted = 0;
    std::uint64_t timerTicks = 0;
    std::uint64_t compileCycles = 0;
    std::uint64_t compiles = 0;
    std::uint64_t osrs = 0;
    std::uint64_t layoutMisses = 0;
    std::uint64_t branchesExecuted = 0;

    /** Threaded engine: versions translated into template streams
     *  (docs/ENGINE.md). */
    std::uint64_t methodsDecoded = 0;
};

/** The virtual machine. */
class Machine
{
  public:
    /**
     * Load a program (a private copy is taken and verified; fatal if
     * verification fails) and precompute CFGs.
     */
    Machine(const bytecode::Program &program, const SimParams &params);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // ---- Configuration (set before the first iteration) --------------

    /**
     * Attach profiler hooks (not owned; may add several). Under
     * EngineKind::Threaded the first PathRegisterHooks attached becomes
     * the machine's inline path profiler (docs/ENGINE.md, "Inline path
     * registers"): its register runs in the frames, and it receives
     * only the calls PathRegisterHooks describes. Adopting it drops
     * every template stream translated so far, so each re-translates
     * against its version's plan on next use.
     */
    void addHooks(ExecutionHooks *hooks);

    /** Attach a compile observer (not owned). */
    void addCompileObserver(CompileObserver *observer);

    /** Override the layout profile source (not owned). */
    void setLayoutSource(LayoutSource *source);

    /**
     * Register a compiler pass (not owned; may add several, run in
     * registration order). Passes run on every optimizing-tier compile
     * from then on — see CompilePass for the ordering contract.
     */
    void addCompilePass(CompilePass *pass);

    /**
     * Attach a cooperative thread scheduler (not owned; nullptr
     * detaches). Interpreters consult it at yieldpoints and return
     * from resume() when it requests a switch.
     */
    void setScheduler(ThreadScheduler *scheduler);

    ThreadScheduler *scheduler() const { return scheduler_; }

    /**
     * Enable replay compilation with the given advice (not owned; must
     * outlive the machine). Disables adaptive promotion.
     */
    void enableReplay(const ReplayAdvice *advice);

    // ---- Running ------------------------------------------------------

    /**
     * Run main() once; returns cycles elapsed during this iteration
     * (including any compilation it triggered).
     */
    std::uint64_t runIteration();

    // ---- Queries ------------------------------------------------------

    const bytecode::Program &program() const { return program_; }
    std::size_t numMethods() const { return program_.methods.size(); }
    const MethodInfo &info(bytecode::MethodId m) const;
    const SimParams &params() const { return params_; }
    const MachineStats &stats() const { return stats_; }

    /** Ground-truth edge counts (observed at zero simulated cost). */
    const profile::EdgeProfileSet &truthEdges() const { return truth_; }

    /** One-time edge profile collected by baseline-compiled code. */
    const profile::EdgeProfileSet &
    oneTimeEdges() const
    {
        return oneTime_;
    }

    /** Reset ground-truth edge counts (e.g., between replay
     *  iterations). */
    void clearTruth() { truth_.clear(); }

    /** Latest compiled version of a method (nullptr if never run). */
    const CompiledMethod *currentVersion(bytecode::MethodId m) const;

    /** Record advice from a completed adaptive run (Section 5). */
    ReplayAdvice recordAdvice() const;

    /** The program's mutable global array (persists across
     *  iterations, like heap state across the paper's replay
     *  iterations). */
    const std::vector<std::int32_t> &globals() const { return globals_; }

    /**
     * Sampling opportunities — loop-header, method-exit and back-edge
     * yieldpoints — that each virtual thread that has run executed,
     * indexed by thread. A path completed while its thread's count
     * reads n is sampleable only at the yieldpoint that still reads n:
     * the next opportunity of its own thread (the count moves on right
     * after that yieldpoint's hooks). A path register that samples
     * completions reads it (vm::PathRegisterHooks::sampleCompletions).
     */
    const std::vector<std::uint64_t> &
    samplingOpportunityCounts() const
    {
        return opportunities_;
    }

    /** Current simulated time in cycles. */
    std::uint64_t now() const { return cycles_; }

    /** Charge simulated cycles (profiler hooks use this). */
    void chargeCycles(std::uint64_t n) { cycles_ += n; }

    /**
     * The Irnd stream of a virtual mutator thread. Thread 0 is the
     * machine's original stream (seeded by SimParams::rngSeed), so
     * single-threaded runs behave exactly as before; further threads
     * get independent streams derived from the seed and the thread id,
     * which is what makes a thread's control flow independent of how
     * the scheduler interleaves it with others.
     */
    support::Rng &rngForThread(std::uint32_t thread);

    /**
     * Force-compile a method at a level now (used by tests; normal
     * compilation happens lazily at invocation).
     */
    const CompiledMethod &compileNow(bytecode::MethodId m,
                                     OptLevel level);

    // ---- Threaded engine (docs/ENGINE.md) -----------------------------

    /**
     * The template stream of a compiled version, translating on first
     * use (compile() translates eagerly under EngineKind::Threaded, so
     * this is a cache hit on the hot path) against the version's
     * inlinePlanFor(). Translation charges no simulated cycles — the
     * stream is a harness artifact, and both engines must report
     * identical cycle counts. Installed versions never change, the
     * fusion selection is fixed per machine, and adopting an inline
     * path profiler drops every cached stream, so a cached stream never
     * goes stale.
     */
    const DecodedMethod &decodedFor(const CompiledMethod &cm);

    /** The inline path profiler's plan for a version: what its stream
     *  is translated against and its frames bind (nullptr: no inline
     *  profiler, or the version is not instrumented). */
    PathPlan *
    inlinePlanFor(const CompiledMethod &cm) const
    {
        return pathHooks_ ? pathHooks_->planFor(cm) : nullptr;
    }

    // ---- Verification support (analysis/verify, docs/ANALYSIS.md) -----

    /** Number of versions ever compiled for a method. */
    std::size_t numVersions(bytecode::MethodId m) const;

    /** A compiled version by number (nullptr if out of range). */
    const CompiledMethod *versionAt(bytecode::MethodId m,
                                    std::uint32_t version) const;

    /** The cached template stream of a version (nullptr until
     *  decodedFor translates it: always under the switch engine). */
    const DecodedMethod *decodedAt(bytecode::MethodId m,
                                   std::uint32_t version) const;

  private:
    friend class Interpreter;

    /** Compile (or recompile) a method and install the result as its
     *  newest version; charges compile cycles. */
    const CompiledMethod &compile(bytecode::MethodId m, OptLevel level);

    /** Compute the branch layout for an opt compile. */
    void applyLayout(CompiledMethod &cm);

    /** Adaptive: take a method sample and maybe schedule promotion. */
    void methodSample(bytecode::MethodId m);

    /** Level the method should be (re)compiled at on next invocation,
     *  or current level if no change is pending. */
    OptLevel targetLevel(bytecode::MethodId m) const;

    bytecode::Program program_;
    SimParams params_;

    std::vector<MethodInfo> infos_;

    /** All versions ever compiled, per method (old frames may still
     *  reference superseded versions). Immutable once installed. */
    std::vector<std::vector<std::unique_ptr<const CompiledMethod>>>
        versions_;

    /** Template streams, parallel to versions_ (null until translated;
     *  see decodedFor). */
    std::vector<std::vector<std::unique_ptr<DecodedMethod>>> decoded_;

    /** Adaptive state. */
    std::vector<std::uint32_t> methodSamples_;
    bool replay_ = false;
    const ReplayAdvice *advice_ = nullptr;

    /** Profiles. */
    profile::EdgeProfileSet truth_;
    profile::EdgeProfileSet oneTime_;

    /** Attached components (not owned). */
    std::vector<ExecutionHooks *> hooks_;
    PathRegisterHooks *pathHooks_ = nullptr;

    /** Per virtual thread, see samplingOpportunityCounts(). */
    std::vector<std::uint64_t> opportunities_;
    std::vector<CompileObserver *> observers_;
    std::vector<CompilePass *> compilePasses_;
    LayoutSource *layoutSource_ = nullptr;
    ThreadScheduler *scheduler_ = nullptr;

    /** Clock and timer. */
    std::uint64_t cycles_ = 0;
    std::uint64_t nextTickAt_ = 0;

    MachineStats stats_;
    support::Rng rng_;

    /** Irnd streams of virtual threads >= 1, created on first use. */
    std::vector<std::unique_ptr<support::Rng>> threadRngs_;

    std::vector<std::int32_t> globals_;
};

} // namespace pep::vm

#endif // PEP_VM_MACHINE_HH
