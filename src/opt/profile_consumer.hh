#ifndef PEP_OPT_PROFILE_CONSUMER_HH
#define PEP_OPT_PROFILE_CONSUMER_HH

/**
 * @file
 * The profile side of the optimizer interface (docs/OPT.md). The VM's
 * LayoutSource answers exactly one question — "edge counts for this
 * method?" — which made the built-in layout predictor the only
 * possible profile consumer. ProfileConsumer widens the contract so a
 * pass pipeline can ask for edge counts and *hot observed paths* (what
 * the cloning pass feeds on), while every existing profile carrier
 * plugs in through a thin adapter:
 *
 *  - LayoutSourceConsumer wraps any vm::LayoutSource (the one-time
 *    baseline profile, FixedLayoutSource snapshots, PepProfiler's
 *    continuous edge profile);
 *  - WindowedProfileConsumer wraps a runtime::WindowedProfile (the
 *    ring-transport/EWMA view), rounding decayed weights to counts;
 *  - PepConsumer wraps a PepProfiler directly and additionally serves
 *    hot paths from its sampled path tables, reconstructed to CFG edge
 *    sequences (k-iteration composite ids included).
 */

#include <cstdint>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "cfg/graph.hh"
#include "profile/edge_profile.hh"

namespace pep::core {
class PepProfiler;
}
namespace pep::runtime {
class WindowedProfile;
}
namespace pep::vm {
class LayoutSource;
class Machine;
}

namespace pep::opt {

/** One hot observed path: consecutive CFG edges of one method
 *  (dst of edges[i] == src of edges[i+1]), with its observed weight. */
struct HotPath
{
    bytecode::MethodId method = 0;
    std::vector<cfg::EdgeRef> edges;
    std::uint64_t weight = 0;
};

/** What the optimizer consumes from a profiler. */
class ProfileConsumer
{
  public:
    virtual ~ProfileConsumer() = default;

    /** Edge profile of a method, or nullptr for "no information". */
    virtual const profile::MethodEdgeProfile *
    edges(bytecode::MethodId method) = 0;

    /** Hot observed paths of a method, hottest first. Default: none
     *  (edge-only carriers; the cloning pass then falls back to a
     *  greedy walk over edge weights). */
    virtual std::vector<HotPath>
    hotPaths(bytecode::MethodId method)
    {
        (void)method;
        return {};
    }
};

/** Adapts any vm::LayoutSource (one-time, fixed, PEP continuous). */
class LayoutSourceConsumer final : public ProfileConsumer
{
  public:
    explicit LayoutSourceConsumer(vm::LayoutSource &source)
        : source_(source)
    {
    }

    const profile::MethodEdgeProfile *
    edges(bytecode::MethodId method) override;

  private:
    vm::LayoutSource &source_;
};

/**
 * Adapts a runtime::WindowedProfile: decayed edge weights are rounded
 * to integer counts and materialized lazily, once per window advance.
 * Paths in the window are keyed by path number without a
 * reconstructor, so this adapter serves edges only.
 */
class WindowedProfileConsumer final : public ProfileConsumer
{
  public:
    /** The machine supplies the CFG shapes; both it and the window
     *  must outlive the adapter. */
    WindowedProfileConsumer(const vm::Machine &machine,
                            const runtime::WindowedProfile &window);

    const profile::MethodEdgeProfile *
    edges(bytecode::MethodId method) override;

  private:
    /** Rebuild the materialized integer profiles if the window
     *  advanced since the last build. */
    void refresh();

    const vm::Machine &machine_;
    const runtime::WindowedProfile &window_;
    std::vector<profile::MethodEdgeProfile> materialized_;
    std::uint64_t builtAtAdvance_ = ~0ull;
};

/** Most hot paths PepConsumer reconstructs per method. */
inline constexpr std::size_t kMaxHotPathsPerMethod = 8;

/**
 * Adapts a core::PepProfiler: edges from its continuous edge profile,
 * hot paths — the kMaxHotPathsPerMethod hottest — from its sampled
 * per-version path tables (reconstructed through the version's
 * numbering, k-iteration windows expanded to their full CFG edge
 * sequence). Versions running a synthesized body (inlined or cloned)
 * are skipped — their path edges live in the synthesized CFG's
 * coordinate space, not the method's.
 */
class PepConsumer final : public ProfileConsumer
{
  public:
    explicit PepConsumer(core::PepProfiler &pep) : pep_(pep) {}

    const profile::MethodEdgeProfile *
    edges(bytecode::MethodId method) override;

    std::vector<HotPath> hotPaths(bytecode::MethodId method) override;

  private:
    core::PepProfiler &pep_;
};

} // namespace pep::opt

#endif // PEP_OPT_PROFILE_CONSUMER_HH
