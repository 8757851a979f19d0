#ifndef PEP_RUNTIME_RING_TRANSPORT_HH
#define PEP_RUNTIME_RING_TRANSPORT_HH

/**
 * @file
 * The production sample transport: per-worker bounded SPSC ring
 * buffers (spsc_ring.hh) carrying compact SampleRecords from mutators
 * to one dedicated collector thread, which folds them into the global
 * profile (through the same ProfileAggregator::add every strategy
 * uses) and into per-shard windowed-decay profiles
 * (profile_window.hh). Of the strategies behind ProfileAggregator
 * this is the one shaped like a real continuous profiler rather than
 * a benchmark baseline:
 *
 *  - **Producers never block.** recordEdge/recordPath check the
 *    record and try one lock-free push; on a full ring the record is
 *    dropped and the shard's drop counter bumped. No lock, no wait,
 *    no allocation on the mutator's path — the service's tail latency
 *    cannot be held hostage by the profiler.
 *  - **Drops are observable, never silent.** Every lane keeps
 *    produced / dropped counters (the ring itself carries the
 *    consumed position), and the conservation law
 *    `produced == consumed + dropped` holds at quiescence — asserted
 *    by the differ (check 5) and broken on purpose by the
 *    `ring-lost-sample` fault injection to prove the harness notices.
 *  - **Zero drops ⇒ byte-equivalent to MutexAggregator.** Collection
 *    is pure commutative addition, so when nothing is dropped the
 *    global edge and path totals are count-for-count identical to the
 *    mutex baseline (the PR 4 determinism contract, extended).
 *  - **Windows track phases.** flush(shard) enqueues an EpochMark;
 *    the collector advances that shard's WindowedProfile when the
 *    mark drains, so the decayed view is a deterministic function of
 *    each shard's own record stream even though collector
 *    interleaving across shards is not deterministic.
 *
 * Threading contract: shard s's record/flush calls come from one
 * producer thread at a time (the SPSC rule, same as ShardedAggregator);
 * the collector is the only consumer. quiesce() must be called after
 * all producers stop and before reading globalEdges()/globalPaths() —
 * it drains every ring, joins the collector, and merges the per-shard
 * windows; reading either before it panics.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/profile_window.hh"
#include "runtime/sharded_profile.hh"
#include "runtime/spsc_ring.hh"

namespace pep::runtime {

/** EWMA multiplier per epoch for the ring's windowed profiles;
 *  effective window length is 1/(1-decay) epochs. */
inline constexpr double kWindowDecay = 0.5;

/** Ring-transport tuning knobs. */
struct RingOptions
{
    /** Slots per worker ring (rounded up to a power of two). The
     *  backpressure policy: when the collector lags by more than this
     *  many records, new samples are dropped-and-counted. */
    std::uint32_t capacity = 1u << 14;

    /**
     * Fault injection for the differ's harness self-test
     * (`ring-lost-sample`): shard 0's `injectLoseAt`-th record is
     * silently discarded — produced is counted, the record is neither
     * delivered nor counted as dropped — modelling a transport that
     * loses samples without accounting. The conservation check and
     * the zero-drop identity check must both catch it. 0 = off.
     */
    std::uint64_t injectLoseAt = 0;
};

/** Mid-run-safe transport counters (all atomically readable). */
struct RingTransportStats
{
    std::uint64_t produced = 0;  ///< records offered by producers
    std::uint64_t consumed = 0;  ///< records applied by the collector
    std::uint64_t dropped = 0;   ///< records rejected by full rings
    std::uint64_t epochMarks = 0;        ///< marks enqueued
    std::uint64_t droppedEpochMarks = 0; ///< marks rejected (ring full)

    double
    dropRate() const
    {
        return produced > 0 ? static_cast<double>(dropped) /
                                  static_cast<double>(produced)
                            : 0.0;
    }
};

/** SPSC-ring transport to a dedicated collector thread. */
class RingAggregator final : public ProfileAggregator
{
  public:
    RingAggregator(const std::vector<const bytecode::MethodCfg *> &cfgs,
                   std::uint32_t shards, const RingOptions &options);
    ~RingAggregator() override;

    RingAggregator(const RingAggregator &) = delete;
    RingAggregator &operator=(const RingAggregator &) = delete;

    /** Enqueue an EpochMark: the shard's window advances when the
     *  collector drains it. Never blocks; a full ring drops the mark
     *  (counted — the window just advances one epoch late). */
    void flush(std::uint32_t shard) override;

    /** Drain all rings, stop the collector, merge windows. Idempotent;
     *  producers must already have stopped. */
    void quiesce() override;

    /** Safe to call from any thread at any time (monitor threads poll
     *  this mid-run; every field is an atomic read). */
    RingTransportStats stats() const;

    std::uint64_t ringCapacity() const { return lanes_[0]->ring.capacity(); }

    /** Per-shard / merged windowed profiles; quiesce() first. */
    const WindowedProfile &window(std::uint32_t shard) const;
    const WindowedProfile &mergedWindow() const;

  private:
    /**
     * One worker's transport lane. Heap-allocated (unique_ptr) and
     * alignas(64) so no two lanes — and no lane and the collector's
     * state — share a cache line; the producer-side counters here are
     * written only by the owning worker, read by anyone.
     */
    struct alignas(64) Lane
    {
        explicit Lane(std::uint32_t capacity) : ring(capacity) {}

        SpscRing ring;
        std::atomic<std::uint64_t> produced{0};
        std::atomic<std::uint64_t> dropped{0};
        std::atomic<std::uint64_t> epochMarks{0};
        std::atomic<std::uint64_t> droppedEpochMarks{0};

        /** Sample records (marks excluded) applied by the collector —
         *  the collector is the only writer. */
        std::atomic<std::uint64_t> consumedSamples{0};
    };

    /** Push onto the shard's ring; a full ring drops and counts. */
    void record(std::uint32_t shard, const SampleRecord &record) override;

    /** Collecting until quiesce() joins the collector. */
    bool quiescent() const override { return !collector_.joinable(); }

    void collectorBody();

    /** Pop-and-apply every buffered record once; true if any drained. */
    bool sweepOnce();

    void apply(std::uint32_t shard, const SampleRecord &record);

    RingOptions options_;
    std::vector<std::unique_ptr<Lane>> lanes_;

    // Collector-owned state (with the base's global profile): touched
    // only by the collector thread until quiesce() joins it.
    std::vector<WindowedProfile> windows_;
    WindowedProfile mergedWindow_;

    std::atomic<bool> stopRequested_{false};
    std::thread collector_;
};

} // namespace pep::runtime

#endif // PEP_RUNTIME_RING_TRANSPORT_HH
