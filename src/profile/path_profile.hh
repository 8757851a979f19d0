#ifndef PEP_PROFILE_PATH_PROFILE_HH
#define PEP_PROFILE_PATH_PROFILE_HH

/**
 * @file
 * Path profiles: frequency per Ball-Larus path number, kept in a flat
 * open-addressing table — the paper's yieldpoint handler keeps a hash
 * table (Section 4.3); here a sample is one probe of a power-of-two
 * index and one increment, with no allocation and no division. Each
 * record caches the path's CFG-edge expansion after the first time it
 * is needed, so repeated samples of the same path (the common case)
 * skip reconstruction.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "profile/kpath.hh"
#include "profile/reconstruct.hh"

namespace pep::profile {

/** One path's frequency and (lazily filled) expansion. */
struct PathRecord
{
    std::uint64_t count = 0;

    /**
     * The part of count already passed on by a client that hands its
     * path table's growth on in batches (core::PathGains): PepProfiler
     * folds a record's new samples into its edge profile when that is
     * read, the service's StreamRecorder publishes a record's new
     * completions to its aggregator once per epoch.
     */
    std::uint64_t folded = 0;

    /** True once cfgEdges / numBranches are valid. */
    bool expanded = false;

    /** Branch blocks on the path (branch-flow weight b_p). */
    std::uint32_t numBranches = 0;

    /** The CFG edges the path executes. */
    std::vector<cfg::EdgeRef> cfgEdges;
};

/**
 * Path frequencies of one method. Records sit contiguously in
 * first-sample order; an index of power-of-two slots, at most half
 * full, holds record positions and is probed linearly from a
 * multiplicative hash of the path number. The index holds positions,
 * not pointers, so a copied or moved profile stays valid.
 */
class MethodPathProfile
{
  public:
    /** A path number and its record; paths() iterates these as
     *  [number, record]. */
    using Entry = std::pair<std::uint64_t, PathRecord>;

    /**
     * The hash's odd multiplier (2^64 / golden ratio): a path's home
     * slot is the top bits of number * kHashMultiplier.
     */
    static constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;

    /**
     * Record one (or n) executions of a path; returns the record so the
     * caller can expand it if this is the first sample. The reference
     * is valid until the next insertion into this profile.
     */
    PathRecord &
    addSample(std::uint64_t path_number, std::uint64_t n = 1)
    {
        PathRecord &record = recordAt(insert(path_number));
        record.count += n;
        return record;
    }

    /**
     * The position of a path's record in paths(), appending a
     * zero-count record if the path was never recorded. Positions stay
     * valid until clear(), across insertions, copies and moves.
     */
    std::uint32_t
    insert(std::uint64_t path_number)
    {
        if (!index_.empty()) {
            const std::uint32_t held = index_[probe(path_number)];
            if (held != 0)
                return held - 1;
        }
        return append(path_number);
    }

    /** The record at a position insert() returned. */
    PathRecord &
    recordAt(std::uint32_t position)
    {
        return records_[position].second;
    }

    /** Look up a path record; nullptr if the path was never recorded. */
    const PathRecord *find(std::uint64_t path_number) const;

    /** All recorded paths, in first-sample order. */
    const std::vector<Entry> &paths() const { return records_; }

    /** Number of distinct paths recorded. */
    std::size_t numDistinctPaths() const { return records_.size(); }

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

    /** Drop all records (the table keeps its capacity). */
    void clear();

  private:
    /** The slot holding path_number, or the empty slot ending its
     *  probe sequence. The index must not be empty. */
    std::size_t
    probe(std::uint64_t path_number) const
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t slot = (path_number * kHashMultiplier) >> shift_;
        while (index_[slot] != 0 &&
               records_[index_[slot] - 1].first != path_number)
            slot = (slot + 1) & mask;
        return slot;
    }

    /** Append a zero-count record for a path not yet recorded. */
    std::uint32_t append(std::uint64_t path_number);

    std::vector<Entry> records_;

    /** Record position + 1 per slot; 0 marks an empty slot. */
    std::vector<std::uint32_t> index_;

    /** 64 - log2(index_.size()). */
    unsigned shift_ = 64;
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
