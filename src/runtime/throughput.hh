#ifndef PEP_RUNTIME_THROUGHPUT_HH
#define PEP_RUNTIME_THROUGHPUT_HH

/**
 * @file
 * The parallel throughput mode: N OS worker threads, each with a
 * private Machine, drive disjoint shards of a request stream and
 * profile every completed path. A worker counts each completion in
 * its own per-version path table; at every epoch boundary (each
 * `epochRequests` requests, and once at worker exit) it publishes the
 * epoch's counts to a shared ProfileAggregator — one path record for
 * each path that completed in the epoch, carrying the path's count,
 * and one edge record for each distinct bytecode edge those paths fold
 * onto, carrying the counts summed over them — and then flushes its
 * shard. This is the layer where real concurrency exists —
 * the cooperative scheduler (coop_scheduler.hh) multiplexes virtual
 * threads over one clock; here separate machines race on wall-clock
 * time and only the aggregator is shared.
 *
 * Workers are deterministic in *what* they record (each machine's
 * simulation is seeded), and every aggregation strategy folds the same
 * records through the one ProfileAggregator::add, so the merged totals
 * are independent of both the strategy and OS scheduling; only the
 * wall time varies. runThroughput() with Aggregation::Sharded, ::Mutex
 * and a drop-free ::Ring must produce count-for-count identical
 * profiles.
 */

#include <cstdint>
#include <memory>

#include "runtime/request_stream.hh"
#include "runtime/ring_transport.hh"
#include "runtime/sharded_profile.hh"
#include "vm/machine.hh"

namespace pep::runtime {

/** Throughput-mode configuration. */
struct ThroughputOptions
{
    enum class Aggregation : std::uint8_t
    {
        Sharded,
        Mutex,

        /** Per-worker SPSC rings to a collector thread; producers
         *  never block, drops are counted (ring_transport.hh). */
        Ring,
    };

    /** OS worker threads (= shards; worker w owns stream shard w). */
    std::uint32_t workers = 4;

    /** Requests a worker completes between epoch flushes. */
    std::uint32_t epochRequests = 64;

    Aggregation aggregation = Aggregation::Sharded;

    /** Ring-transport knobs (Aggregation::Ring only). */
    RingOptions ring;

    /** Per-worker machine parameters (seed etc.). */
    vm::SimParams params;
};

/** What one throughput run produced. */
struct ThroughputResult
{
    double wallSeconds = 0.0;
    std::uint64_t requestsCompleted = 0;

    /** Completed paths, counted where each completes: every one of
     *  them must reach the totals below. */
    std::uint64_t pathRecords = 0;

    /** Bytecode-edge executions those paths fold onto, counted when
     *  they are published: a path published with count c adds c per
     *  folded edge. Both are counts of events, not of aggregator
     *  calls. */
    std::uint64_t edgeRecords = 0;
    double requestsPerSecond = 0.0;

    /** Merged global profiles (quiescent). */
    profile::EdgeProfileSet edges;
    PathTotals paths;

    /** ShardedAggregator epoch flushes (Sharded only, else 0). */
    std::uint64_t shardFlushes = 0;

    /** Ring-transport observables (Ring only, else zeros): the
     *  conservation law `produced == consumed + dropped` holds at
     *  quiescence unless the transport lost samples silently. */
    RingTransportStats transport;

    /** Merged windowed-profile observables (Ring only). */
    std::uint64_t windowAdvances = 0;
    double windowStalenessEpochs = 0.0;
    double windowMass = 0.0;
};

/** Run the stream over `workers` OS threads; blocks until done. */
ThroughputResult runThroughput(const RequestStream &stream,
                               const ThroughputOptions &options);

} // namespace pep::runtime

#endif // PEP_RUNTIME_THROUGHPUT_HH
