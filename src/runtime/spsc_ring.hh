#ifndef PEP_RUNTIME_SPSC_RING_HH
#define PEP_RUNTIME_SPSC_RING_HH

/**
 * @file
 * The service's profile record and the sample transport's queue: a
 * compact profile sample record — the one record every
 * ProfileAggregator takes (sharded_profile.hh) — and a bounded
 * lock-free single-producer / single-consumer ring buffer, the way
 * production sampling profilers move samples from mutators to a
 * collector (spprof's fixed-slot ring with explicit dropped-sample
 * accounting is the model).
 *
 * Two rules govern the design, both load-bearing for a profiler that
 * runs inside a service indefinitely:
 *
 *  - **Producers never block.** A push either claims a free slot or
 *    fails immediately; there is no lock, no wait, no allocation. The
 *    mutator's worst case is one failed compare and a counter bump.
 *  - **Memory is bounded.** The ring is a fixed array sized at
 *    construction. When the collector falls behind, samples are
 *    dropped at the producer — and every drop is *counted* by the
 *    owner of the ring (see ring_transport.hh), never silent.
 *
 * The queue is the classic Lamport SPSC ring over monotonically
 * increasing positions: the producer owns `tail_`, the consumer owns
 * `head_`, each reads the other's position with acquire ordering and
 * publishes its own with release ordering. Each side additionally
 * caches the last-seen opposing position so the common case touches
 * only its own cache line (the cached value is refreshed — one acquire
 * load — only when the ring looks full/empty).
 */

#include <atomic>
#include <cstdint>
#include <vector>

#include "bytecode/instr.hh"
#include "cfg/graph.hh"
#include "support/panic.hh"

namespace pep::runtime {

/**
 * One profile event, as every aggregator takes it: a sharded shard
 * buffers it until its epoch flush, the mutex baseline folds it at
 * once, and the ring carries it from a mutator to the collector. Plain
 * 32-byte POD — slots are preallocated and records are copied in/out
 * whole, so pushing is a handful of stores.
 */
struct SampleRecord
{
    enum class Kind : std::uint32_t
    {
        Edge,      ///< `edge` of `method` crossed `count` times
        Path,      ///< path `pathNumber` of `method` completed `count` times
        EpochMark, ///< producer epoch boundary: advance the shard's window
    };

    Kind kind = Kind::Edge;
    bytecode::MethodId method = 0;
    cfg::EdgeRef edge{};
    std::uint64_t pathNumber = 0;
    std::uint64_t count = 1;

    static SampleRecord
    forEdge(bytecode::MethodId method, cfg::EdgeRef edge,
            std::uint64_t count)
    {
        SampleRecord record;
        record.kind = Kind::Edge;
        record.method = method;
        record.edge = edge;
        record.count = count;
        return record;
    }

    static SampleRecord
    forPath(bytecode::MethodId method, std::uint64_t path_number,
            std::uint64_t count)
    {
        SampleRecord record;
        record.kind = Kind::Path;
        record.method = method;
        record.pathNumber = path_number;
        record.count = count;
        return record;
    }

    static SampleRecord
    epochMark()
    {
        SampleRecord record;
        record.kind = Kind::EpochMark;
        record.count = 0;
        return record;
    }
};

/** Bounded lock-free SPSC ring of SampleRecords. Exactly one thread
 *  may push and exactly one may pop; either side may also be polled
 *  for positions (size()/pushed()/popped() are atomic reads). */
class SpscRing
{
  public:
    /** Capacity is rounded up to a power of two (minimum 2). */
    explicit SpscRing(std::uint32_t capacity)
    {
        std::uint64_t rounded = 2;
        while (rounded < capacity)
            rounded <<= 1;
        slots_.resize(static_cast<std::size_t>(rounded));
        mask_ = rounded - 1;
    }

    std::uint64_t capacity() const { return mask_ + 1; }

    /** Producer only. False (and no side effect) when the ring is
     *  full — the caller is responsible for counting the drop. */
    bool
    tryPush(const SampleRecord &record)
    {
        const std::uint64_t tail =
            tail_.load(std::memory_order_relaxed);
        if (tail - headCache_ == capacity()) {
            headCache_ = head_.load(std::memory_order_acquire);
            if (tail - headCache_ == capacity())
                return false;
        }
        slots_[tail & mask_] = record;
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Consumer only. False when the ring is empty. */
    bool
    tryPop(SampleRecord &out)
    {
        const std::uint64_t head =
            head_.load(std::memory_order_relaxed);
        if (head == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (head == tailCache_)
                return false;
        }
        out = slots_[head & mask_];
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /** Records ever pushed / popped (monotonic positions; safe to read
     *  from any thread). */
    std::uint64_t
    pushed() const
    {
        return tail_.load(std::memory_order_acquire);
    }

    std::uint64_t
    popped() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** Records currently buffered (racy but consistent snapshot). */
    std::uint64_t
    size() const
    {
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        return tail_.load(std::memory_order_acquire) - head;
    }

  private:
    std::vector<SampleRecord> slots_;
    std::uint64_t mask_ = 0;

    /** Consumer position; written by the consumer only. The producer's
     *  cached copy lives on the producer's line below. */
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::uint64_t tailCache_ = 0; // consumer's view of tail_

    /** Producer position; written by the producer only. */
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    alignas(64) std::uint64_t headCache_ = 0; // producer's view of head_
};

} // namespace pep::runtime

#endif // PEP_RUNTIME_SPSC_RING_HH
