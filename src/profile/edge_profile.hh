#ifndef PEP_PROFILE_EDGE_PROFILE_HH
#define PEP_PROFILE_EDGE_PROFILE_HH

/**
 * @file
 * Edge profiles. Counts are kept per CFG edge (block, successor index).
 * For conditional branches this directly yields the taken / not-taken
 * counters that the paper's VM keeps per bytecode branch (successor 0 is
 * the taken target, successor 1 the fall-through; see cfg_builder.hh).
 */

#include <cstdint>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "cfg/graph.hh"

namespace pep::profile {

/** Taken / not-taken counters of one conditional branch. */
struct BranchCounts
{
    std::uint64_t taken = 0;
    std::uint64_t notTaken = 0;

    std::uint64_t total() const { return taken + notTaken; }

    /**
     * Fraction of executions that took the branch; 0.5 when the branch
     * was never observed (an unbiased default prediction).
     */
    double
    takenBias() const
    {
        const std::uint64_t t = total();
        return t == 0 ? 0.5
                      : static_cast<double>(taken) /
                            static_cast<double>(t);
    }
};

/** Edge counts for one method. */
class MethodEdgeProfile
{
  public:
    MethodEdgeProfile() = default;

    /** Size the count table for a method's CFG. */
    explicit MethodEdgeProfile(const bytecode::MethodCfg &method_cfg);

    /** Add `n` to an edge's count. */
    void
    addEdge(cfg::EdgeRef e, std::uint64_t n = 1)
    {
        counts_[e.src][e.index] += n;
    }

    /** Count of one edge. */
    std::uint64_t
    edgeCount(cfg::EdgeRef e) const
    {
        return counts_[e.src][e.index];
    }

    /** The full count table, parallel to CFG successor lists. */
    const std::vector<std::vector<std::uint64_t>> &
    counts() const
    {
        return counts_;
    }

    /** Taken / not-taken counters of a Cond block. */
    BranchCounts branch(cfg::BlockId b) const;

    /** Total count across all edges. */
    std::uint64_t totalCount() const;

    /** Reset all counts to zero. */
    void clear();

    /** Add another profile's counts into this one (same CFG shape). */
    void merge(const MethodEdgeProfile &other);

    /**
     * A copy with every conditional branch's taken/not-taken counters
     * exchanged — the paper's "flipped" profile (Section 6.5), used to
     * show that profile-guided optimization is accuracy-sensitive.
     */
    MethodEdgeProfile flipped(const bytecode::MethodCfg &method_cfg) const;

    /** True if no counts have been recorded. */
    bool empty() const { return totalCount() == 0; }
    bool operator==(const MethodEdgeProfile &) const = default;

  private:
    std::vector<std::vector<std::uint64_t>> counts_;
};

/** Edge profiles for every method of a program. */
struct EdgeProfileSet
{
    std::vector<MethodEdgeProfile> perMethod;

    EdgeProfileSet() = default;

    /** Size for a program's CFGs. */
    explicit EdgeProfileSet(
        const std::vector<bytecode::MethodCfg> &cfgs);

    /** Same, from borrowed CFGs — callers that only hold the program's
     *  method infos can size the tables without copying each CFG. */
    explicit EdgeProfileSet(
        const std::vector<const bytecode::MethodCfg *> &cfgs);

    void clear();

    /**
     * Add another set's counts into this one. Both sets must describe
     * the same program: same method count and per-method CFG shapes
     * (asserted). This is the epoch-flush primitive of the concurrent
     * runtime: shard-local sets merge into the global set.
     */
    void merge(const EdgeProfileSet &other);

    /** Total count across all methods. */
    std::uint64_t totalCount() const;
    bool operator==(const EdgeProfileSet &) const = default;
};

} // namespace pep::profile

#endif // PEP_PROFILE_EDGE_PROFILE_HH
