#include "testing/observables.hh"

#include <cstdint>
#include <map>
#include <sstream>

#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "opt/pipeline.hh"
#include "runtime/coop_scheduler.hh"
#include "vm/machine.hh"

namespace pep::testing {

namespace {

void
writeEdges(std::ostringstream &os, const std::string &tag,
           const profile::EdgeProfileSet &set)
{
    for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
        os << tag << " method " << m << ':';
        for (const auto &per_block : set.perMethod[m].counts())
            for (const std::uint64_t count : per_block)
                os << ' ' << count;
        os << '\n';
    }
}

void
writePaths(std::ostringstream &os, const std::string &tag,
           const core::PathEngine &engine)
{
    for (const auto &[key, vp] : engine.versionProfiles()) {
        std::map<std::uint64_t, std::uint64_t> ordered;
        for (const auto &[number, record] : vp->paths.paths())
            ordered[number] = record.count;
        os << tag << " method " << key.first << " v" << key.second
           << ':';
        for (const auto &[number, count] : ordered)
            os << ' ' << number << '=' << count;
        os << '\n';
    }
}

} // namespace

std::string
serializeRun(const vm::Machine &machine, const RunObservers &observers)
{
    // Each stats struct is read through one structured binding, so a
    // field added to it fails to compile here until it is serialized.
    std::ostringstream os;
    writeEdges(os, "truth", machine.truthEdges());
    writeEdges(os, "one-time", machine.oneTimeEdges());
    if (observers.full)
        writePaths(os, "full paths", *observers.full);
    for (std::size_t i = 0; i < observers.peps.size(); ++i) {
        const core::PepProfiler &pep = *observers.peps[i];
        const std::string tag = "pep " + std::to_string(i);
        writeEdges(os, tag + " edges", pep.edgeProfile());
        writePaths(os, tag + " paths", pep);
        const auto &[completed, taken, recorded, strides, expansions] =
            pep.pepStats();
        os << tag << " stats " << completed << ' ' << taken << ' '
           << recorded << ' ' << strides << ' ' << expansions << '\n';
    }
    if (observers.pipeline) {
        const auto &[runs, layouts, clones, declined] =
            observers.pipeline->stats();
        os << "opt " << runs << ' ' << layouts << ' ' << clones << ' '
           << declined << '\n';
    }
    if (observers.coop) {
        const auto &[switches, completed, resumes] = *observers.coop;
        os << "coop " << switches << ' ' << completed << ' ' << resumes
           << '\n';
    }
    [[maybe_unused]] const auto &[instructions, invocations, yieldpoints,
                                  ticks, compile_cycles, compiles, osrs,
                                  layout_misses, branches,
                                  methods_decoded] = machine.stats();
    os << "machine " << instructions << ' ' << invocations << ' '
       << yieldpoints << ' ' << ticks << ' ' << compile_cycles << ' '
       << compiles << ' ' << osrs << ' ' << layout_misses << ' '
       << branches << '\n'
       << "clock " << machine.now() << '\n';
    return os.str();
}

} // namespace pep::testing
