#ifndef PEP_PROFILE_PATH_PROFILE_HH
#define PEP_PROFILE_PATH_PROFILE_HH

/**
 * @file
 * Path profiles: frequency per Ball-Larus path number, kept in a hash
 * table as the paper's yieldpoint handler does (Section 4.3). Each
 * record caches the path's CFG-edge expansion after the first time it
 * is needed, so repeated samples of the same path (the common case)
 * skip reconstruction.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "profile/kpath.hh"
#include "profile/reconstruct.hh"

namespace pep::profile {

/** One path's frequency and (lazily filled) expansion. */
struct PathRecord
{
    std::uint64_t count = 0;

    /** True once cfgEdges / numBranches are valid. */
    bool expanded = false;

    /** Branch blocks on the path (branch-flow weight b_p). */
    std::uint32_t numBranches = 0;

    /** The CFG edges the path executes. */
    std::vector<cfg::EdgeRef> cfgEdges;
};

/** Path frequencies of one method. */
class MethodPathProfile
{
  public:
    /**
     * Record one (or n) executions of a path; returns the record so the
     * caller can expand it if this is the first sample.
     */
    PathRecord &
    addSample(std::uint64_t path_number, std::uint64_t n = 1)
    {
        PathRecord &record = paths_[path_number];
        record.count += n;
        return record;
    }

    /** Look up a path record; nullptr if the path was never recorded. */
    const PathRecord *find(std::uint64_t path_number) const;

    /** All recorded paths (unordered). */
    const std::unordered_map<std::uint64_t, PathRecord> &
    paths() const
    {
        return paths_;
    }

    /** Number of distinct paths recorded. */
    std::size_t numDistinctPaths() const { return paths_.size(); }

    /** Sum of all path counts. */
    std::uint64_t totalCount() const;

    /**
     * Expand every record that is not yet expanded (used by the metrics
     * code, which needs numBranches for every path). Pass the version's
     * KPathScheme when composite k-path ids may be present; null keeps
     * the single-iteration behavior.
     */
    void ensureExpanded(const PathReconstructor &reconstructor,
                        const KPathScheme *kpath = nullptr);

    /** Drop all records. */
    void clear() { paths_.clear(); }

  private:
    std::unordered_map<std::uint64_t, PathRecord> paths_;
};

/**
 * Fill `record` from a reconstruction (first-sample slow path of the
 * paper's handler). With a KPathScheme, composite ids (>= base) expand
 * through reconstructKPath; raw Ball-Larus numbers and the null-scheme
 * case take the legacy single-segment reconstruction.
 */
void expandRecord(PathRecord &record,
                  const PathReconstructor &reconstructor,
                  std::uint64_t path_number,
                  const KPathScheme *kpath = nullptr);

/**
 * Accumulate a path profile into an edge profile: each path contributes
 * its CFG edges, weighted by the path's count. This is how the paper
 * derives both PEP's edge profile and the "perfect" edge profile used
 * as the accuracy baseline (Section 5.1).
 */
void accumulateEdgeProfile(class MethodEdgeProfile &edge_profile,
                           MethodPathProfile &path_profile,
                           const PathReconstructor &reconstructor,
                           const KPathScheme *kpath = nullptr);

} // namespace pep::profile

#endif // PEP_PROFILE_PATH_PROFILE_HH
