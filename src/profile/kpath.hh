#ifndef PEP_PROFILE_KPATH_HH
#define PEP_PROFILE_KPATH_HH

/**
 * @file
 * k-iteration BLPP id space (D'Elia & Demetrescu, arXiv 1304.5197).
 *
 * Single-iteration BLPP numbers the acyclic path segments of one
 * method version 0..totalPaths-1. A *k-path* is a window of up to k
 * consecutive segments executed by one frame: the segment stream is
 * cut into tumbling windows of kEffective segments each (the final
 * window of a frame may be shorter — the frame exited, or OSR/park
 * flushed it). The Ball-Larus instrumentation itself is untouched for
 * every k; the window layer only composes the per-segment numbers the
 * existing plan already produces. That construction makes the k=1
 * degeneracy guarantee structural: with k==1 every window holds one
 * segment and the composite id *is* the raw Ball-Larus number, so
 * plans, profiles and engine observables are bit-for-bit identical to
 * the pre-k behavior.
 *
 * Composite encoding, base N = plan.totalPaths:
 *
 *   window [n_0, n_1, .., n_{l-1}]   (n_0 oldest)
 *   id = offset(l) + sum_j n_j * N^j
 *   offset(1) = 0,  offset(l+1) = offset(l) + N^l
 *
 * so ids of length-l windows occupy the contiguous range
 * [offset(l), offset(l+1)), length-1 ids equal raw segment numbers,
 * and maxId() == offset(kEffective+1) bounds the whole id space.
 * kEffective is the largest l <= k whose id space fits under kIdCap;
 * huge methods degrade gracefully toward plain BLPP instead of
 * overflowing.
 *
 * Smart-numbering interplay comes for free: the hottest segment gets
 * number 0 under NumberingScheme::Smart (zero-cost increments), so the
 * all-hot cross-iteration window has all-zero digits and its id is the
 * constant offset(l) — no multiplication chain ever executes at
 * runtime; engines only push the already-computed per-segment register
 * and fold digits once per window completion.
 */

#include <cstdint>
#include <vector>

#include "profile/reconstruct.hh"

namespace pep::profile {

/** Composite ids must stay well under 2^63 so count tables, deltas and
 *  serialized profiles keep using plain u64 arithmetic. */
constexpr std::uint64_t kKPathIdCap = 1ull << 62;

/** Largest l <= k_requested whose composite id space for the given
 *  base fits under kKPathIdCap. Always >= 1 (length-1 ids are raw
 *  Ball-Larus numbers, and totalPaths <= kMaxPaths < kKPathIdCap). */
std::uint32_t kEffectiveFor(std::uint64_t base, std::uint32_t k_requested);

/**
 * A frame's open window: the segments completed since its last id,
 * folded into the id's digit sum as they arrive, so an open window is
 * three words wherever the frame's register lives — no per-segment
 * storage and no allocation per frame.
 */
struct KPathWindow
{
    std::uint64_t digits = 0; ///< sum of n_j * base^j so far
    std::uint64_t scale = 1;  ///< base^length
    std::uint32_t length = 0;
};

class KPathScheme
{
  public:
    /** k == 1 and base == 0 (disabled plan) are both valid; the
     *  default scheme is the degenerate single-iteration one. */
    KPathScheme() = default;
    KPathScheme(std::uint64_t base, std::uint32_t k_requested);

    std::uint64_t base() const { return base_; }
    std::uint32_t kRequested() const { return kRequested_; }
    std::uint32_t kEffective() const { return kEffective_; }

    /** One past the largest valid composite id. Equals base() when
     *  kEffective() == 1 — the raw Ball-Larus range. */
    std::uint64_t maxId() const { return offsets_[kEffective_]; }

    /** First id of length-(l) windows, offsets()[l] == one past the
     *  ids of length <= l. size() == kEffective()+1, [0] == 0. */
    const std::vector<std::uint64_t> &offsets() const { return offsets_; }

    /** Compose a window of 1..kEffective() segment numbers (oldest
     *  first) into its id. Panics on empty/oversized windows or
     *  digits >= base(). */
    std::uint64_t encode(const std::uint64_t *digits,
                         std::size_t length) const;
    std::uint64_t encode(const std::vector<std::uint64_t> &digits) const
    {
        return encode(digits.data(), digits.size());
    }

    /** Append segment `number` to `window`; true once the window
     *  holds kEffective() segments. Panics on number >= base(). */
    bool append(KPathWindow &window, std::uint64_t number) const;

    /** The id of a non-empty `window` — encode() of its segments —
     *  which starts over empty. */
    std::uint64_t close(KPathWindow &window) const;

    /** Split a composite id back into its segment numbers (oldest
     *  first). Panics on id >= maxId(). */
    std::vector<std::uint64_t> decode(std::uint64_t id) const;

    /** Window length of a composite id; panics on id >= maxId(). */
    std::uint32_t lengthOf(std::uint64_t id) const;

  private:
    std::uint64_t base_ = 0;
    std::uint32_t kRequested_ = 1;
    std::uint32_t kEffective_ = 1;
    /** offsets_[l] = number of ids of length <= l; prefix sums of
     *  base^l, size kEffective_+1. */
    std::vector<std::uint64_t> offsets_ = {0, 0};
};

/**
 * Reconstruct a composite k-path id to CFG edges: decode the digits,
 * reconstruct each segment with the plain single-iteration
 * reconstructor, and concatenate. startHeader comes from the first
 * segment, endHeader from the last; numBranches and the edge vectors
 * are the concatenation/sum over digits. Ids below scheme.base() take
 * the legacy reconstructor verbatim (the degenerate case).
 */
ReconstructedPath reconstructKPath(const KPathScheme &scheme,
                                   const PathReconstructor &reconstructor,
                                   std::uint64_t id);

} // namespace pep::profile

#endif // PEP_PROFILE_KPATH_HH
