#ifndef PEP_RUNTIME_SHARDED_PROFILE_HH
#define PEP_RUNTIME_SHARDED_PROFILE_HH

/**
 * @file
 * Concurrent profile aggregation for the parallel throughput mode.
 *
 * Every strategy takes the same record — a runtime::SampleRecord
 * (spsc_ring.hh), checked on the caller's thread by the entry points
 * of ProfileAggregator — and folds it once, through
 * ProfileAggregator::add, into the one global profile the base class
 * owns. The strategies differ only in when and on which thread that
 * fold runs:
 *
 *  - ShardedAggregator: each worker appends its records to its own
 *    cache-line-padded buffer without synchronization, and at each
 *    epoch boundary applies the buffer under one short global lock.
 *    Workers never touch each other's buffers, so the hot record path
 *    is contention- and false-sharing-free.
 *
 *  - MutexAggregator: the textbook baseline — every record takes the
 *    one lock and is folded at once. Correct, slow under contention;
 *    the benchmark measures the gap.
 *
 *  - RingAggregator (ring_transport.hh): records travel through
 *    per-worker SPSC rings to a collector thread, which folds them.
 *
 * All produce identical totals for identical inputs (asserted by the
 * differ and tests/runtime): aggregation strategy must never change
 * *what* is counted, only how fast.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "profile/edge_profile.hh"
#include "runtime/spsc_ring.hh"

namespace pep::runtime {

/** Identity of one path-profile counter. */
struct PathKey
{
    bytecode::MethodId method = 0;
    std::uint64_t number = 0;

    bool
    operator<(const PathKey &other) const
    {
        return method != other.method ? method < other.method
                                      : number < other.number;
    }

    bool
    operator==(const PathKey &other) const
    {
        return method == other.method && number == other.number;
    }
};

/** Path counters, ordered for deterministic iteration/serialization. */
using PathTotals = std::map<PathKey, std::uint64_t>;

/**
 * Where concurrent workers record profile events. `shard` is the
 * caller's worker index; a strategy may ignore it (MutexAggregator)
 * or use it to index private storage (ShardedAggregator, and the
 * ring's lanes — each shard must be driven by at most one thread at a
 * time).
 */
class ProfileAggregator
{
  public:
    virtual ~ProfileAggregator() = default;

    /**
     * Record `n` crossings of `edge` / completions of path
     * `path_number`. A shard index the strategy does not have, a
     * method past the program, or an edge past the method's CFG is a
     * caller bug: it panics here, on the caller's thread, before the
     * strategy sees the record.
     */
    void recordEdge(std::uint32_t shard, bytecode::MethodId method,
                    cfg::EdgeRef edge, std::uint64_t n = 1);
    void recordPath(std::uint32_t shard, bytecode::MethodId method,
                    std::uint64_t path_number, std::uint64_t n = 1);

    /** Epoch boundary: publish the shard's records globally. A worker
     *  must flush its shard once more after its last record. */
    virtual void flush(std::uint32_t shard) = 0;

    /** Drain any background collection and stop it. Must be called
     *  after every producer has flushed and stopped, before reading
     *  the global profiles. A no-op for synchronous aggregators; the
     *  ring transport (ring_transport.hh) drains its collector thread
     *  here. */
    virtual void quiesce() {}

    /** Global profiles. Only meaningful when all workers have flushed
     *  and stopped and quiesce() ran (asserted where the strategy can
     *  tell); not synchronized with recording. */
    const profile::EdgeProfileSet &globalEdges() const;
    const PathTotals &globalPaths() const;

  protected:
    /** Size the global profile for `cfgs`. Entry points accept shard
     *  indices below `shards`; 0 accepts any (the strategy ignores the
     *  index). */
    ProfileAggregator(const std::vector<const bytecode::MethodCfg *> &cfgs,
                      std::uint32_t shards);

    /** Take one checked Edge or Path record from shard `shard`. */
    virtual void record(std::uint32_t shard,
                        const SampleRecord &record) = 0;

    /** False while background collection may still write the global
     *  profile (the ring before quiesce()). */
    virtual bool quiescent() const { return true; }

    /** Panic unless the entry points accept `shard`. */
    void checkShard(std::uint32_t shard) const;

    /** Fold one Edge or Path record into the global profile. Callers
     *  serialize their calls. */
    void add(const SampleRecord &record);

  private:
    const std::uint32_t numShards_;
    profile::EdgeProfileSet edges_;
    PathTotals paths_;
};

/** Per-shard record buffers, applied at the epoch boundary. */
class ShardedAggregator final : public ProfileAggregator
{
  public:
    ShardedAggregator(
        const std::vector<const bytecode::MethodCfg *> &cfgs,
        std::uint32_t shards);

    /** Apply the shard's buffered records under the global lock and
     *  empty the buffer; an empty buffer is a no-op and no flush. */
    void flush(std::uint32_t shard) override;

    /** Completed epoch flushes across all shards. Safe to poll from a
     *  monitor thread mid-run: the counter is atomic (workers
     *  increment it under flushMutex_, but readers do not take the
     *  lock — a plain std::uint64_t here was a data race, torn/stale
     *  under TSan, when stats were sampled while workers flushed). */
    std::uint64_t
    flushes() const
    {
        return flushes_.load(std::memory_order_relaxed);
    }

  private:
    void record(std::uint32_t shard, const SampleRecord &record) override;

    /**
     * One worker's record buffer. alignas(64) keeps each shard's
     * vector on its own cache line: without the padding, adjacent
     * shards' size fields share a line and every append ping-pongs it
     * between cores (false sharing) — the failure mode the sharded
     * design exists to avoid.
     */
    struct alignas(64) Shard
    {
        std::vector<SampleRecord> records;
    };

    std::vector<Shard> shards_;
    std::mutex flushMutex_;
    std::atomic<std::uint64_t> flushes_{0};
};

/** One global table, one lock, every record synchronized. */
class MutexAggregator final : public ProfileAggregator
{
  public:
    explicit MutexAggregator(
        const std::vector<const bytecode::MethodCfg *> &cfgs);

    /** Every record is already global. */
    void flush(std::uint32_t /*shard*/) override {}

  private:
    void record(std::uint32_t shard, const SampleRecord &record) override;

    std::mutex mutex_;
};

} // namespace pep::runtime

#endif // PEP_RUNTIME_SHARDED_PROFILE_HH
