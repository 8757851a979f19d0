#include "analysis/diagnostics.hh"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace pep::analysis {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Note:
        return "note";
    }
    return "unknown";
}

void
DiagnosticList::add(Diagnostic diagnostic)
{
    diagnostics_.push_back(std::move(diagnostic));
}

Diagnostic &
DiagnosticList::report(Severity severity, std::string pass,
                       std::string method, std::string message)
{
    Diagnostic d;
    d.severity = severity;
    d.pass = std::move(pass);
    d.method = std::move(method);
    d.message = std::move(message);
    diagnostics_.push_back(std::move(d));
    return diagnostics_.back();
}

Diagnostic &
DiagnosticList::reportAtPc(Severity severity, std::string pass,
                           std::string method, bytecode::Pc pc,
                           std::string message)
{
    Diagnostic &d = report(severity, std::move(pass), std::move(method),
                           std::move(message));
    d.hasPc = true;
    d.pc = pc;
    return d;
}

Diagnostic &
DiagnosticList::reportAtEdge(Severity severity, std::string pass,
                             std::string method, cfg::EdgeRef edge,
                             std::string message)
{
    Diagnostic &d = report(severity, std::move(pass), std::move(method),
                           std::move(message));
    d.hasEdge = true;
    d.edge = edge;
    return d;
}

std::size_t
DiagnosticList::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics_)
        n += d.severity == severity ? 1 : 0;
    return n;
}

void
DiagnosticList::merge(const DiagnosticList &other)
{
    diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                        other.diagnostics_.end());
}

bool
diagnosticLess(const Diagnostic &a, const Diagnostic &b)
{
    const auto key = [](const Diagnostic &d) {
        return std::make_tuple(
            std::cref(d.file), std::cref(d.method), d.hasVersion,
            d.version, std::cref(d.pass), std::cref(d.check), d.hasPc,
            d.pc, d.hasEdge, d.edge.src, d.edge.index,
            static_cast<int>(d.severity), std::cref(d.message));
    };
    return key(a) < key(b);
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::stable_sort(diagnostics.begin(), diagnostics.end(),
                     diagnosticLess);
}

std::string
formatDiagnostic(const Diagnostic &diagnostic)
{
    std::ostringstream os;
    if (!diagnostic.file.empty())
        os << diagnostic.file << ": ";
    os << severityName(diagnostic.severity) << ": ["
       << diagnostic.pass;
    if (!diagnostic.check.empty())
        os << '/' << diagnostic.check;
    os << "]";
    if (!diagnostic.method.empty())
        os << " method '" << diagnostic.method << "'";
    if (diagnostic.hasVersion)
        os << " v" << diagnostic.version;
    if (diagnostic.hasPc)
        os << " pc " << diagnostic.pc;
    if (diagnostic.hasEdge) {
        os << " edge (" << diagnostic.edge.src << ","
           << diagnostic.edge.index << ")";
    }
    os << ": " << diagnostic.message;
    return os.str();
}

namespace {

/** Minimal JSON string escaping (quotes, backslash, control chars). */
void
appendJsonString(std::ostringstream &os, const std::string &text)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

std::string
diagnosticsToJson(const std::vector<Diagnostic> &diagnostics)
{
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const Diagnostic &d : diagnostics) {
        os << (first ? "" : ",") << "\n  {";
        first = false;
        if (!d.file.empty()) {
            os << "\"file\": ";
            appendJsonString(os, d.file);
            os << ", ";
        }
        os << "\"severity\": \"" << severityName(d.severity) << "\", ";
        os << "\"pass\": ";
        appendJsonString(os, d.pass);
        if (!d.check.empty()) {
            os << ", \"check\": ";
            appendJsonString(os, d.check);
        }
        os << ", \"method\": ";
        appendJsonString(os, d.method);
        if (d.hasVersion)
            os << ", \"version\": " << d.version;
        if (d.hasPc)
            os << ", \"pc\": " << d.pc;
        if (d.hasEdge) {
            os << ", \"edge\": {\"src\": " << d.edge.src
               << ", \"index\": " << d.edge.index << "}";
        }
        os << ", \"message\": ";
        appendJsonString(os, d.message);
        os << "}";
    }
    os << "\n]\n";
    return os.str();
}

} // namespace pep::analysis
