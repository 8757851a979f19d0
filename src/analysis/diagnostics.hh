#ifndef PEP_ANALYSIS_DIAGNOSTICS_HH
#define PEP_ANALYSIS_DIAGNOSTICS_HH

/**
 * @file
 * Structured diagnostics for the static-analysis passes and
 * pep-verify. A diagnostic names the pass that produced it, the input
 * file and method it applies to, an optional pc and/or CFG edge
 * location, a severity, and a message. DiagnosticList accumulates
 * them across passes; formatting helpers render one-line text
 * ("error: [pass] method 'm' pc 3: ...") and a machine-readable JSON
 * array for tooling.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/instr.hh"
#include "cfg/graph.hh"

namespace pep::analysis {

/** How bad a diagnostic is. */
enum class Severity : std::uint8_t
{
    Error,   ///< an invariant is violated; the artifact is unusable
    Warning, ///< suspicious but well-formed (dead store, dead code)
    Note,    ///< informational (skipped checks, statistics)
};

/** Text name of a severity ("error" / "warning" / "note"). */
const char *severityName(Severity severity);

/** One finding of one pass. */
struct Diagnostic
{
    Severity severity = Severity::Error;

    /** Pass that produced the finding (e.g. "verify", "plan-check"). */
    std::string pass;

    /** Check within the pass (e.g. "flow-conservation"); empty when
     *  the pass has a single check. Part of the sort key. */
    std::string check;

    /** Input file the finding applies to; empty when the caller
     *  checks an in-memory program. Tools set it before sorting. */
    std::string file;

    /** Method the finding applies to; empty for program-level. */
    std::string method;

    /** Compiled version the finding applies to, when it has one
     *  (the verify passes inspect per-version state). */
    bool hasVersion = false;
    std::uint32_t version = 0;

    /** Bytecode location, when the finding has one. */
    bool hasPc = false;
    bytecode::Pc pc = 0;

    /** CFG edge location, when the finding has one. */
    bool hasEdge = false;
    cfg::EdgeRef edge;

    std::string message;
};

/**
 * Deterministic ordering: (file, method, version, pass, check, pc,
 * edge, severity, message). Tools sort with this before emitting so CI diffs
 * and corpus replays are stable regardless of pass scheduling.
 */
bool diagnosticLess(const Diagnostic &a, const Diagnostic &b);

/** Stable-sort a diagnostic vector with diagnosticLess. */
void sortDiagnostics(std::vector<Diagnostic> &diagnostics);

/** Accumulates diagnostics across passes, preserving insertion order. */
class DiagnosticList
{
  public:
    void add(Diagnostic diagnostic);

    /** Convenience constructors; each returns the added diagnostic. */
    Diagnostic &report(Severity severity, std::string pass,
                       std::string method, std::string message);
    Diagnostic &reportAtPc(Severity severity, std::string pass,
                           std::string method, bytecode::Pc pc,
                           std::string message);
    Diagnostic &reportAtEdge(Severity severity, std::string pass,
                             std::string method, cfg::EdgeRef edge,
                             std::string message);

    const std::vector<Diagnostic> &all() const { return diagnostics_; }

    std::size_t count(Severity severity) const;
    std::size_t errorCount() const { return count(Severity::Error); }
    std::size_t warningCount() const { return count(Severity::Warning); }
    bool hasErrors() const { return errorCount() > 0; }
    bool empty() const { return diagnostics_.empty(); }

    /** Append another list's diagnostics. */
    void merge(const DiagnosticList &other);

  private:
    std::vector<Diagnostic> diagnostics_;
};

/** One-line human-readable rendering, prefixed "file: " when the
 *  diagnostic names a file. */
std::string formatDiagnostic(const Diagnostic &diagnostic);

/** JSON array rendering (stable key order, no external deps); an
 *  entry leads with a "file" key when the diagnostic names a file. */
std::string diagnosticsToJson(const std::vector<Diagnostic> &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_DIAGNOSTICS_HH
