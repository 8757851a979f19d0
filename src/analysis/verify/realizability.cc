#include "analysis/verify/realizability.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "profile/reconstruct.hh"
#include "support/panic.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

constexpr std::size_t kMaxPerCategory = 8;
constexpr char kPass[] = "realizability";

/** Blocks reachable from the CFG entry (edges out of the others must
 *  never fire, so their counts must be zero). */
std::vector<bool>
reachableBlocks(const cfg::Graph &graph)
{
    std::vector<bool> seen(graph.numBlocks(), false);
    std::vector<cfg::BlockId> work{graph.entry()};
    seen[graph.entry()] = true;
    while (!work.empty()) {
        const cfg::BlockId b = work.back();
        work.pop_back();
        for (const cfg::BlockId s : graph.succs(b)) {
            if (!seen[s]) {
                seen[s] = true;
                work.push_back(s);
            }
        }
    }
    return seen;
}

class EdgeChecker
{
  public:
    EdgeChecker(const bytecode::MethodCfg &cfg,
                const profile::MethodEdgeProfile &profile,
                const RealizabilityOptions &options,
                const std::string &method_name,
                DiagnosticList &diagnostics)
        : cfg_(cfg), profile_(profile), opts_(options),
          method_(method_name), diags_(diagnostics)
    {
    }

    bool
    run()
    {
        const std::size_t before = diags_.errorCount();
        if (!checkShape())
            return diags_.errorCount() == before;
        checkConservation();
        checkReachability();
        checkWalkBounds();
        return diags_.errorCount() == before;
    }

  private:
    void
    error(const char *check, const std::string &message)
    {
        Diagnostic &d =
            diags_.report(Severity::Error, kPass, method_, message);
        d.check = check;
    }

    void
    errorAtEdge(const char *check, cfg::EdgeRef edge,
                const std::string &message)
    {
        Diagnostic &d = diags_.reportAtEdge(Severity::Error, kPass,
                                            method_, edge, message);
        d.check = check;
    }

    bool
    capped(const char *check, std::size_t &counter)
    {
        if (counter == kMaxPerCategory) {
            Diagnostic &d = diags_.report(
                Severity::Note, kPass, method_,
                "further findings of this kind suppressed");
            d.check = check;
        }
        return counter++ >= kMaxPerCategory;
    }

    bool
    checkShape()
    {
        const auto &counts = profile_.counts();
        if (counts.size() != cfg_.graph.numBlocks()) {
            std::ostringstream os;
            os << opts_.what << " count table has " << counts.size()
               << " blocks, CFG has " << cfg_.graph.numBlocks();
            error("shape", os.str());
            return false;
        }
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            if (counts[b].size() != cfg_.graph.succs(b).size()) {
                std::ostringstream os;
                os << opts_.what << " block " << b << " has "
                   << counts[b].size() << " edge counters for "
                   << cfg_.graph.succs(b).size() << " successors";
                error("shape", os.str());
                return false;
            }
        }
        return true;
    }

    std::uint64_t
    outflow(cfg::BlockId b) const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t c : profile_.counts()[b])
            sum += c;
        return sum;
    }

    /** Kirchhoff: whatever flows into a code block must flow out.
     *  Sampled paths are walks whose endpoints are method entry/exit
     *  and loop headers, so interior (non-header) blocks conserve for
     *  any sum of recorded walks; complete-frame truth counts conserve
     *  at headers too. */
    void
    checkConservation()
    {
        const auto &counts = profile_.counts();
        std::vector<std::uint64_t> inflow(cfg_.graph.numBlocks(), 0);
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            const auto &succs = cfg_.graph.succs(b);
            for (std::size_t i = 0; i < succs.size(); ++i)
                inflow[succs[i]] += counts[b][i];
        }
        std::size_t findings = 0;
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            if (!cfg_.isCodeBlock(b))
                continue;
            if (cfg_.isLoopHeader[b] && !opts_.requireHeaderConservation)
                continue;
            const std::uint64_t out = outflow(b);
            if (inflow[b] != out &&
                !capped("flow-conservation", findings)) {
                std::ostringstream os;
                os << opts_.what << " violates flow conservation at "
                   << (cfg_.isLoopHeader[b] ? "header " : "block ") << b
                   << ": inflow " << inflow[b] << ", outflow " << out
                   << " — no execution can record this";
                error("flow-conservation", os.str());
            }
        }
    }

    void
    checkReachability()
    {
        const std::vector<bool> reachable = reachableBlocks(cfg_.graph);
        std::size_t findings = 0;
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            if (reachable[b])
                continue;
            const auto &counts = profile_.counts()[b];
            for (std::size_t i = 0; i < counts.size(); ++i) {
                if (counts[i] != 0 &&
                    !capped("unreachable-flow", findings)) {
                    std::ostringstream os;
                    os << opts_.what << " records " << counts[i]
                       << " executions of an edge leaving statically "
                          "unreachable block "
                       << b;
                    errorAtEdge("unreachable-flow",
                                {b, static_cast<std::uint32_t>(i)},
                                os.str());
                }
            }
        }
    }

    /** Each recorded walk is acyclic in the P-DAG, so it crosses any
     *  CFG edge at most once and enters/leaves the method at most
     *  once; `maxWalks` walks bound every counter. */
    void
    checkWalkBounds()
    {
        if (opts_.maxWalks == 0)
            return;
        std::size_t findings = 0;
        const auto &counts = profile_.counts();
        // A k-BLPP window concatenates up to `walkMultiplicity` acyclic
        // segments, so one walk may cross an edge that many times.
        const std::uint64_t multiplicity =
            opts_.walkMultiplicity == 0 ? 1 : opts_.walkMultiplicity;
        const std::uint64_t per_edge = opts_.maxWalks * multiplicity;
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            for (std::size_t i = 0; i < counts[b].size(); ++i) {
                if (counts[b][i] > per_edge &&
                    !capped("walk-bound", findings)) {
                    std::ostringstream os;
                    os << opts_.what << " counts "
                       << counts[b][i] << " crossings of one edge but "
                          "only "
                       << opts_.maxWalks << " walks were recorded";
                    if (multiplicity > 1) {
                        os << " (x" << multiplicity
                           << " segments per window)";
                    }
                    errorAtEdge("walk-bound",
                                {b, static_cast<std::uint32_t>(i)},
                                os.str());
                }
            }
        }
        const std::uint64_t entry_out = outflow(cfg_.graph.entry());
        if (entry_out > opts_.maxWalks && !capped("walk-bound", findings)) {
            std::ostringstream os;
            os << opts_.what << " records " << entry_out
               << " method entries but only " << opts_.maxWalks
               << " walks";
            error("walk-bound", os.str());
        }
        std::uint64_t exit_in = 0;
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            const auto &succs = cfg_.graph.succs(b);
            for (std::size_t i = 0; i < succs.size(); ++i) {
                if (succs[i] == cfg_.graph.exit())
                    exit_in += counts[b][i];
            }
        }
        if (exit_in > opts_.maxWalks && !capped("walk-bound", findings)) {
            std::ostringstream os;
            os << opts_.what << " records " << exit_in
               << " method exits but only " << opts_.maxWalks
               << " walks";
            error("walk-bound", os.str());
        }
    }

    const bytecode::MethodCfg &cfg_;
    const profile::MethodEdgeProfile &profile_;
    const RealizabilityOptions &opts_;
    const std::string &method_;
    DiagnosticList &diags_;
};

} // namespace

bool
checkEdgeProfileRealizability(const bytecode::MethodCfg &cfg,
                              const profile::MethodEdgeProfile &profile,
                              const RealizabilityOptions &options,
                              const std::string &method_name,
                              DiagnosticList &diagnostics)
{
    EdgeChecker checker(cfg, profile, options, method_name, diagnostics);
    return checker.run();
}

bool
checkEdgeSetRealizability(const vm::Machine &machine,
                          const profile::EdgeProfileSet &set,
                          const RealizabilityOptions &options,
                          DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    if (set.perMethod.size() != machine.numMethods()) {
        std::ostringstream os;
        os << options.what << " covers " << set.perMethod.size()
           << " methods, the program has " << machine.numMethods();
        Diagnostic &d = diagnostics.report(Severity::Error, kPass,
                                           /*method=*/"", os.str());
        d.check = "shape";
        return false;
    }
    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        checkEdgeProfileRealizability(
            machine.info(m).cfg, set.perMethod[m], options,
            machine.program().methods[m].name, diagnostics);
    }
    return diagnostics.errorCount() == before;
}

bool
checkPathProfileRealizability(
    const profile::InstrumentationPlan &plan,
    const profile::PathReconstructor &reconstructor,
    const profile::MethodPathProfile &paths,
    const RealizabilityOptions &options, std::uint64_t max_total,
    const std::string &method_name, bool has_version,
    std::uint32_t version, DiagnosticList &diagnostics,
    const profile::KPathScheme *kpath)
{
    const std::size_t before = diagnostics.errorCount();
    const auto report = [&](const char *check,
                            const std::string &message) {
        Diagnostic &d = diagnostics.report(Severity::Error, kPass,
                                           method_name, message);
        d.check = check;
        d.hasVersion = has_version;
        d.version = version;
    };

    if (!plan.enabled) {
        if (paths.numDistinctPaths() != 0) {
            std::ostringstream os;
            os << options.what << " records "
               << paths.numDistinctPaths()
               << " paths against a disabled (overflowed) plan";
            report("path-range", os.str());
        }
        return diagnostics.errorCount() == before;
    }

    // Path tables iterate in first-sample order; sort the numbers first
    // so diagnostics come out in number order.
    std::vector<std::uint64_t> numbers;
    numbers.reserve(paths.paths().size());
    for (const auto &entry : paths.paths())
        numbers.push_back(entry.first);
    std::sort(numbers.begin(), numbers.end());

    // Under a k-BLPP scheme, composite window ids extend the valid
    // range past the per-segment numbering.
    const std::uint64_t id_limit =
        kpath != nullptr ? kpath->maxId() : plan.totalPaths;

    std::size_t range_findings = 0;
    std::uint64_t total = 0;
    for (const std::uint64_t number : numbers) {
        total += paths.find(number)->count;
        if (number >= id_limit) {
            if (range_findings++ < kMaxPerCategory) {
                std::ostringstream os;
                os << options.what << " records path number " << number
                   << " but the numbering has only " << plan.totalPaths
                   << " paths";
                if (kpath != nullptr) {
                    os << " (k=" << kpath->kEffective()
                       << " id space ends at " << id_limit << ")";
                }
                report("path-range", os.str());
            }
            continue;
        }
        if (kpath != nullptr && number >= kpath->base()) {
            // Composite id: every digit must reconstruct, and the
            // digits must chain — segment j ends at the header segment
            // j+1 starts from, and only the final segment may end at
            // method exit (exits always flush the window).
            const std::vector<std::uint64_t> digits =
                kpath->decode(number);
            cfg::BlockId prev_end = cfg::kInvalidBlock;
            for (std::size_t j = 0; j < digits.size(); ++j) {
                profile::ReconstructedPath segment;
                try {
                    segment = reconstructor.reconstruct(digits[j]);
                } catch (const support::PanicError &e) {
                    if (range_findings++ < kMaxPerCategory) {
                        std::ostringstream os;
                        os << options.what << " k-path id " << number
                           << " digit " << j << " (" << digits[j]
                           << ") does not reconstruct: " << e.what();
                        report("path-reconstruct", os.str());
                    }
                    break;
                }
                if (j > 0) {
                    if (prev_end == cfg::kInvalidBlock) {
                        if (range_findings++ < kMaxPerCategory) {
                            std::ostringstream os;
                            os << options.what << " k-path id "
                               << number << " has a segment ending at "
                                  "method exit before digit "
                               << j
                               << " — exits always close the window";
                            report("kpath-chain", os.str());
                        }
                        break;
                    }
                    if (segment.startHeader != prev_end) {
                        if (range_findings++ < kMaxPerCategory) {
                            std::ostringstream os;
                            os << options.what << " k-path id "
                               << number << " digit " << j
                               << " starts at header "
                               << segment.startHeader
                               << " but the previous segment ended at "
                               << prev_end
                               << " — no frame walks this window";
                            report("kpath-chain", os.str());
                        }
                        break;
                    }
                }
                prev_end = segment.endHeader;
            }
            continue;
        }
        try {
            (void)reconstructor.reconstructDagEdges(number);
        } catch (const support::PanicError &e) {
            if (range_findings++ < kMaxPerCategory) {
                std::ostringstream os;
                os << options.what << " path number " << number
                   << " does not reconstruct: " << e.what();
                report("path-reconstruct", os.str());
            }
        }
    }
    if (range_findings > kMaxPerCategory) {
        Diagnostic &d = diagnostics.report(
            Severity::Note, kPass, method_name,
            "further findings of this kind suppressed");
        d.check = "path-range";
        d.hasVersion = has_version;
        d.version = version;
    }

    if (max_total != 0 && total > max_total) {
        std::ostringstream os;
        os << options.what << " holds " << total
           << " path samples but at most " << max_total
           << " were recorded";
        report("walk-bound", os.str());
    }
    return diagnostics.errorCount() == before;
}

} // namespace pep::analysis
