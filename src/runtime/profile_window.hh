#ifndef PEP_RUNTIME_PROFILE_WINDOW_HH
#define PEP_RUNTIME_PROFILE_WINDOW_HH

/**
 * @file
 * Time-windowed profiles with exponential decay. A long-running
 * service's cumulative profile averages phase changes away: a branch
 * that was 90/10 for the first hour and 10/90 since looks 50/50
 * forever. Production path profilers bound the window instead
 * (Propeller's `max_time_diff_in_path_buffer_millis` discards stale
 * buffered paths); here the equivalent is an EWMA over *epochs*:
 *
 *     window = decay * window + epoch_counts        (per epoch mark)
 *
 * so a count observed k epochs ago carries weight decay^k and the
 * effective window length is 1/(1-decay) epochs. Epochs — not wall
 * clock — drive the decay so the windowed view stays a deterministic
 * function of the producer's record stream (the determinism contract
 * of docs/RUNTIME.md extends to windows: one WindowedProfile per
 * shard, advanced only by that shard's own epoch marks).
 *
 * Memory stays bounded for indefinite runs: path entries whose decayed
 * weight falls below a prune threshold are erased at the epoch
 * boundary, so paths from dead phases age out of the table instead of
 * accumulating.
 *
 * The window also tracks its own **staleness**: the mass-weighted mean
 * age, in epochs, of the weight it currently holds (fresh epoch counts
 * enter at age 0; surviving mass ages by 1 at each advance). A steady
 * workload converges to decay/(1-decay); a spike right after a phase
 * change means the window is still dominated by pre-change mass.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "bytecode/cfg_builder.hh"

namespace pep::runtime {

/** Windowed path entries decaying below this weight are pruned. */
inline constexpr double kWindowPruneEpsilon = 1e-6;

/** Decayed per-edge / per-path weights for one shard. */
class WindowedProfile
{
  public:
    WindowedProfile() = default;

    WindowedProfile(const std::vector<const bytecode::MethodCfg *> &cfgs,
                    double decay);

    /** Accumulate into the current (not yet decayed) epoch. */
    void addEdge(bytecode::MethodId method, cfg::EdgeRef edge,
                 std::uint64_t n);
    void addPath(bytecode::MethodId method, std::uint64_t path_number,
                 std::uint64_t n);

    /** Epoch boundary: decay the window, fold the epoch in, prune. */
    void advance();

    /** Decayed edge weights, [method][block][successor index]. */
    const std::vector<std::vector<std::vector<double>>> &
    edgeWeights() const
    {
        return edgeWindow_;
    }

    /** Decayed path weights (ordered; pruned below
     *  kWindowPruneEpsilon). */
    const std::map<std::pair<bytecode::MethodId, std::uint64_t>, double> &
    pathWeights() const
    {
        return pathWindow_;
    }

    double decay() const { return decay_; }

    /** Completed advance() calls. */
    std::uint64_t advances() const { return advances_; }

    /** Total decayed weight currently held (paths + edges). */
    double mass() const { return mass_; }

    /** Mass-weighted mean age of the held weight, in epochs. */
    double stalenessEpochs() const { return meanAgeEpochs_; }

    /** Fold another shard's window into this one (same CFG shapes).
     *  Merged staleness is the mass-weighted mean of the inputs'. */
    void merge(const WindowedProfile &other);

  private:
    double decay_ = 0.5;

    std::vector<std::vector<std::vector<double>>> edgeWindow_;
    std::vector<std::vector<std::vector<double>>> edgeEpoch_;
    std::map<std::pair<bytecode::MethodId, std::uint64_t>, double>
        pathWindow_;
    std::map<std::pair<bytecode::MethodId, std::uint64_t>, double>
        pathEpoch_;

    std::uint64_t advances_ = 0;
    double mass_ = 0.0;
    double meanAgeEpochs_ = 0.0;
};

} // namespace pep::runtime

#endif // PEP_RUNTIME_PROFILE_WINDOW_HH
