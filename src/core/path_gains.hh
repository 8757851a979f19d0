#ifndef PEP_CORE_PATH_GAINS_HH
#define PEP_CORE_PATH_GAINS_HH

/**
 * @file
 * Passing a path table's growth on, incrementally. Two clients keep a
 * per-version path table (VersionProfile::paths) and hand its new
 * counts to someone else in batches: PepProfiler folds the paths it
 * sampled into its edge profile when that profile is read, and the
 * request service's StreamRecorder (runtime/throughput.cc) publishes
 * the paths its worker completed to the aggregator once per epoch.
 * Both count through PathGains::count, read the gains back through
 * PathGains::drain, and fold a path onto bytecode-level edges through
 * forEachBytecodeEdge. Everything here is inline: PathGains::count is
 * on PEP's sample handler and on every path completion of a service
 * worker.
 */

#include <cstdint>
#include <vector>

#include "core/path_engine.hh"
#include "profile/path_profile.hh"
#include "vm/inliner.hh"

namespace pep::core {

/**
 * Call visit(method, edge) for the bytecode-level edge each CFG edge of
 * the expanded `record` counts at, through vm::bytecodeEdge: the
 * branches of a synthesized (inlined or cloned) version's own CFG land
 * at the bytecode branches they came from (Section 4.3), and edges with
 * no bytecode counterpart are skipped. The one path-to-edge fold.
 */
template <typename Visit>
inline void
forEachBytecodeEdge(const MethodProfilingState &state,
                    const profile::PathRecord &record, Visit &&visit)
{
    const vm::InlinedBody *inlined =
        state.compiled ? state.compiled->inlinedBody.get() : nullptr;
    for (const cfg::EdgeRef &edge : record.cfgEdges) {
        const vm::BytecodeEdge folded =
            vm::bytecodeEdge(state.method, inlined, edge);
        if (folded.valid())
            visit(folded.method, folded.edge);
    }
}

/**
 * The path records that gained counts since the last drain. A record's
 * gain is count - PathRecord::folded; drain() hands it over and sets
 * folded = count. A record joins the list at its first count after a
 * drain, so the list names each gaining record once however often it
 * is counted, and a drain costs one visit per distinct path.
 */
class PathGains
{
  public:
    /** Count one execution of the path at `position` (from
     *  vp.paths.insert) and return its record. */
    profile::PathRecord &
    count(VersionProfile &vp, std::uint32_t position)
    {
        profile::PathRecord &record = vp.paths.recordAt(position);
        if (record.count == record.folded)
            gained_.push_back({&vp, position});
        ++record.count;
        return record;
    }

    /** Call visit(vp, path_number, record, gain) for every record that
     *  gained since the last drain, then mark every gain handed over. */
    template <typename Visit>
    void
    drain(Visit &&visit)
    {
        for (const Gained &entry : gained_) {
            VersionProfile &vp = *entry.version;
            profile::PathRecord &record = vp.paths.recordAt(entry.position);
            visit(vp, vp.paths.paths()[entry.position].first, record,
                  record.count - record.folded);
            record.folded = record.count;
        }
        gained_.clear();
    }

    /** Forget every gain, for a client that drops its path records. */
    void clear() { gained_.clear(); }

  private:
    /** Held by position: an insertion into the table may move its
     *  records. */
    struct Gained
    {
        VersionProfile *version = nullptr;
        std::uint32_t position = 0;
    };

    std::vector<Gained> gained_;
};

} // namespace pep::core

#endif // PEP_CORE_PATH_GAINS_HH
