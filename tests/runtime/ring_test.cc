/**
 * @file
 * Tests of the production sample transport: the SPSC ring queue, the
 * windowed-decay profiles, and the RingAggregator built from them.
 * Suite names start with "Runtime" and the binary carries the
 * `runtime` ctest label, so the TSan CI sweep runs every concurrent
 * test here under the race detector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "runtime/profile_window.hh"
#include "runtime/request_stream.hh"
#include "runtime/ring_transport.hh"
#include "runtime/sharded_profile.hh"
#include "runtime/spsc_ring.hh"
#include "support/panic.hh"
#include "support/rng.hh"

namespace pep {
namespace {

TEST(RuntimeSpscRingTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(runtime::SpscRing(1).capacity(), 2u);
    EXPECT_EQ(runtime::SpscRing(2).capacity(), 2u);
    EXPECT_EQ(runtime::SpscRing(3).capacity(), 4u);
    EXPECT_EQ(runtime::SpscRing(8).capacity(), 8u);
    EXPECT_EQ(runtime::SpscRing(1000).capacity(), 1024u);
}

TEST(RuntimeSpscRingTest, FifoOrderSurvivesWraparound)
{
    runtime::SpscRing ring(8);
    std::uint64_t next_push = 0;
    std::uint64_t next_pop = 0;
    // Uneven push/pop batches force the positions to wrap the 8-slot
    // array many times over; order must stay strictly FIFO throughout.
    for (int round = 0; round < 200; ++round) {
        const int pushes = 1 + round % 7;
        for (int i = 0; i < pushes; ++i) {
            if (ring.tryPush(
                    runtime::SampleRecord::forPath(0, next_push, 1)))
                ++next_push;
        }
        const int pops = 1 + (round * 3) % 5;
        runtime::SampleRecord record;
        for (int i = 0; i < pops && ring.tryPop(record); ++i) {
            EXPECT_EQ(record.pathNumber, next_pop);
            ++next_pop;
        }
    }
    runtime::SampleRecord record;
    while (ring.tryPop(record)) {
        EXPECT_EQ(record.pathNumber, next_pop);
        ++next_pop;
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_GT(next_push, ring.capacity() * 10)
        << "the loop was meant to wrap the ring many times";
}

TEST(RuntimeSpscRingTest, FullRingRejectsPushWithoutSideEffects)
{
    runtime::SpscRing ring(4);
    for (std::uint64_t i = 0; i < ring.capacity(); ++i)
        ASSERT_TRUE(ring.tryPush(runtime::SampleRecord::forPath(0, i, 1)));
    EXPECT_FALSE(ring.tryPush(runtime::SampleRecord::forPath(0, 99, 1)));
    EXPECT_EQ(ring.pushed(), ring.capacity());
    EXPECT_EQ(ring.size(), ring.capacity());

    runtime::SampleRecord record;
    ASSERT_TRUE(ring.tryPop(record));
    EXPECT_EQ(record.pathNumber, 0u);
    // One freed slot: exactly one more push fits, and the rejected
    // record from above never entered the queue.
    EXPECT_TRUE(ring.tryPush(runtime::SampleRecord::forPath(0, 4, 1)));
    EXPECT_FALSE(ring.tryPush(runtime::SampleRecord::forPath(0, 5, 1)));
    while (ring.tryPop(record)) {
    }
    EXPECT_EQ(record.pathNumber, 4u) << "last record out is the refill";
    EXPECT_EQ(ring.popped(), ring.pushed());
}

TEST(RuntimeSpscRingTest, ConcurrentConservationAndOrdering)
{
    // One real producer OS thread versus one consumer thread over a
    // deliberately tiny ring: every accepted record must come out
    // exactly once and in order, and the producer-side drop count must
    // account for every rejected push — drops == produced − consumed.
    runtime::SpscRing ring(64);
    constexpr std::uint64_t kAttempts = 200'000;
    std::atomic<bool> done{false};
    std::uint64_t dropped = 0;

    std::thread producer([&] {
        for (std::uint64_t seq = 0; seq < kAttempts; ++seq) {
            if (!ring.tryPush(
                    runtime::SampleRecord::forPath(0, seq, 1)))
                ++dropped;
        }
        done.store(true, std::memory_order_release);
    });

    std::uint64_t consumed = 0;
    std::uint64_t last_seq = 0;
    bool ordered = true;
    runtime::SampleRecord record;
    while (true) {
        if (ring.tryPop(record)) {
            // Sequence numbers may gap (those were dropped) but can
            // never reorder or duplicate.
            if (consumed > 0 && record.pathNumber <= last_seq)
                ordered = false;
            last_seq = record.pathNumber;
            ++consumed;
        } else if (done.load(std::memory_order_acquire) &&
                   ring.size() == 0) {
            break;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();

    EXPECT_TRUE(ordered) << "consumer saw out-of-order sequence";
    EXPECT_EQ(consumed + dropped, kAttempts);
    EXPECT_EQ(ring.popped(), consumed);
    EXPECT_EQ(ring.pushed(), consumed);
}

/** Shared CFG fixture: the request-stream program's method CFGs, plus
 *  one known-good conditional edge to record against. */
class RuntimeRingProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        runtime::RequestStreamSpec spec;
        spec.seed = 7;
        spec.requests = 4;
        stream_ = std::make_unique<runtime::RequestStream>(spec);
        for (const bytecode::Method &method :
             stream_->program().methods)
            cfgs_.push_back(bytecode::buildCfg(method));
        for (const bytecode::MethodCfg &method_cfg : cfgs_)
            cfgPtrs_.push_back(&method_cfg);
        for (std::size_t m = 0; m < cfgs_.size() && method_ == 0; ++m) {
            const cfg::Graph &graph = cfgs_[m].graph;
            for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
                if (graph.succs(b).size() >= 2) {
                    method_ = static_cast<bytecode::MethodId>(m);
                    edge_ = cfg::EdgeRef{b, 1};
                    break;
                }
            }
        }
        ASSERT_GE(cfgs_[method_].graph.succs(edge_.src).size(), 2u);
    }

    std::unique_ptr<runtime::RequestStream> stream_;
    std::vector<bytecode::MethodCfg> cfgs_;
    std::vector<const bytecode::MethodCfg *> cfgPtrs_;
    bytecode::MethodId method_ = 0;
    cfg::EdgeRef edge_{};
};

TEST_F(RuntimeRingProfileTest, WindowDecaysGeometrically)
{
    runtime::WindowedProfile window(cfgPtrs_, 0.5);
    window.addEdge(method_, edge_, 4);
    window.addPath(method_, 11, 8);
    window.advance();
    EXPECT_DOUBLE_EQ(
        window.edgeWeights()[method_][edge_.src][edge_.index], 4.0);
    EXPECT_DOUBLE_EQ(window.pathWeights().at({method_, 11}), 8.0);
    EXPECT_DOUBLE_EQ(window.mass(), 12.0);
    EXPECT_DOUBLE_EQ(window.stalenessEpochs(), 0.0)
        << "all mass is from the epoch that just closed";

    // window = decay * window + epoch: 0.5*4 + 2 = 4.
    window.addEdge(method_, edge_, 2);
    window.advance();
    EXPECT_DOUBLE_EQ(
        window.edgeWeights()[method_][edge_.src][edge_.index], 4.0);
    EXPECT_DOUBLE_EQ(window.pathWeights().at({method_, 11}), 4.0);
    EXPECT_EQ(window.advances(), 2u);

    // Aged mass 0.5*12 = 6 at age 1, fresh mass 2 at age 0.
    EXPECT_DOUBLE_EQ(window.stalenessEpochs(), 6.0 / 8.0);
}

TEST_F(RuntimeRingProfileTest, WindowStalenessConvergesOnSteadyInput)
{
    // A steady workload's mean age converges to decay/(1-decay):
    // the same epoch mass enters every epoch, older mass decays away.
    const double decay = 0.5;
    runtime::WindowedProfile window(cfgPtrs_, decay);
    for (int epoch = 0; epoch < 40; ++epoch) {
        window.addEdge(method_, edge_, 10);
        window.advance();
    }
    EXPECT_NEAR(window.stalenessEpochs(), decay / (1.0 - decay), 1e-9);
    EXPECT_NEAR(window.mass(), 10.0 / (1.0 - decay), 1e-6);
}

TEST_F(RuntimeRingProfileTest, WindowPrunesDeadPhasePaths)
{
    runtime::WindowedProfile window(cfgPtrs_, 0.5);
    window.addPath(method_, 3, 1);
    window.advance();
    ASSERT_EQ(window.pathWeights().size(), 1u);

    // 0.5^19 is still above kWindowPruneEpsilon (1e-6); 0.5^20 is
    // below it, and the dead phase's path must leave the table then,
    // not linger at ~0 forever.
    for (int epoch = 0; epoch < 19; ++epoch)
        window.advance();
    EXPECT_EQ(window.pathWeights().size(), 1u);
    window.advance();
    EXPECT_TRUE(window.pathWeights().empty());
    EXPECT_LT(window.mass(), runtime::kWindowPruneEpsilon);
}

TEST_F(RuntimeRingProfileTest, WindowMergeIsMassWeighted)
{
    runtime::WindowedProfile a(cfgPtrs_, 0.5);
    a.addEdge(method_, edge_, 6);
    a.advance(); // mass 6, staleness 0
    a.advance(); // mass 3, staleness 1

    runtime::WindowedProfile b(cfgPtrs_, 0.5);
    b.addPath(method_, 5, 9);
    b.advance(); // mass 9, staleness 0

    runtime::WindowedProfile merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_DOUBLE_EQ(merged.mass(), 12.0);
    EXPECT_DOUBLE_EQ(merged.stalenessEpochs(), (3.0 * 1.0) / 12.0);
    EXPECT_DOUBLE_EQ(
        merged.edgeWeights()[method_][edge_.src][edge_.index], 3.0);
    EXPECT_DOUBLE_EQ(merged.pathWeights().at({method_, 5}), 9.0);
    EXPECT_EQ(merged.advances(), 2u) << "merge keeps the max advances";
}

TEST_F(RuntimeRingProfileTest, DropFreeRingMatchesMutexCountForCount)
{
    // The determinism contract extended to the transport: with an
    // ample ring nothing is dropped, and collection is commutative
    // addition, so the ring totals equal the mutex baseline exactly.
    runtime::RingOptions options;
    options.capacity = 1u << 16;
    runtime::RingAggregator ring(cfgPtrs_, 3, options);
    runtime::MutexAggregator mutex_global(cfgPtrs_);

    support::Rng rng(1234);
    for (int i = 0; i < 5000; ++i) {
        const auto shard =
            static_cast<std::uint32_t>(rng.nextBounded(3));
        const auto method = static_cast<bytecode::MethodId>(
            rng.nextBounded(cfgs_.size()));
        const cfg::Graph &graph = cfgs_[method].graph;
        if (graph.numBlocks() == 0)
            continue;
        const auto block =
            static_cast<cfg::BlockId>(rng.nextBounded(graph.numBlocks()));
        if (!graph.succs(block).empty()) {
            const cfg::EdgeRef edge{block, 0};
            ring.recordEdge(shard, method, edge);
            mutex_global.recordEdge(shard, method, edge);
        }
        const std::uint64_t path_number = rng.nextBounded(64);
        ring.recordPath(shard, method, path_number);
        mutex_global.recordPath(shard, method, path_number);
    }
    for (std::uint32_t s = 0; s < 3; ++s)
        ring.flush(s);
    ring.quiesce();

    const runtime::RingTransportStats stats = ring.stats();
    ASSERT_EQ(stats.dropped, 0u) << "64k slots cannot fill here";
    EXPECT_EQ(stats.produced, stats.consumed);
    EXPECT_EQ(stats.epochMarks, 3u);
    EXPECT_EQ(stats.droppedEpochMarks, 0u);

    EXPECT_EQ(ring.globalEdges(), mutex_global.globalEdges());
    EXPECT_EQ(ring.globalPaths(), mutex_global.globalPaths());
}

TEST_F(RuntimeRingProfileTest, TinyRingDropsAreCountedNeverSilent)
{
    // A 2-slot ring under a tight producer loop must overflow; every
    // overflow is a counted drop and conservation still balances:
    // produced == consumed + dropped at quiescence.
    runtime::RingOptions options;
    options.capacity = 2;
    runtime::RingAggregator ring(cfgPtrs_, 1, options);
    EXPECT_EQ(ring.ringCapacity(), 2u);

    std::uint64_t produced = 0;
    constexpr std::uint64_t kMaxAttempts = 1u << 22;
    while (ring.stats().dropped == 0 && produced < kMaxAttempts) {
        for (int i = 0; i < 1024; ++i, ++produced)
            ring.recordPath(0, method_, produced % 16);
    }
    ring.quiesce();

    const runtime::RingTransportStats stats = ring.stats();
    EXPECT_GT(stats.dropped, 0u)
        << "collector outran the producer for " << produced
        << " pushes into 2 slots";
    EXPECT_EQ(stats.produced, produced);
    EXPECT_EQ(stats.produced, stats.consumed + stats.dropped);

    // Drops remove whole records; they never invent counts.
    std::uint64_t total = 0;
    for (const auto &[key, count] : ring.globalPaths())
        total += count;
    EXPECT_EQ(total, stats.consumed);
}

TEST_F(RuntimeRingProfileTest, WindowAdvancesWithEpochMarksInOrder)
{
    // Per-shard FIFO makes the windowed view deterministic: shard 0's
    // mark cannot overtake shard 0's records, so the decay fold sees
    // exactly the epochs the producer delimited.
    runtime::RingOptions options;
    options.capacity = 1u << 12;
    runtime::RingAggregator ring(cfgPtrs_, 1, options);

    ring.recordEdge(0, method_, edge_, 4);
    ring.flush(0);
    ring.recordEdge(0, method_, edge_, 2);
    ring.flush(0);
    ring.quiesce();

    const runtime::WindowedProfile &window = ring.mergedWindow();
    EXPECT_EQ(window.advances(), 2u);
    EXPECT_DOUBLE_EQ(
        window.edgeWeights()[method_][edge_.src][edge_.index],
        runtime::kWindowDecay * 4.0 + 2.0);
    EXPECT_EQ(ring.globalEdges().perMethod[method_].edgeCount(edge_),
              6u);
}

TEST_F(RuntimeRingProfileTest, OutOfRangeShardIsRejected)
{
    // An out-of-range worker index, method, block or successor index
    // is a caller bug. Every strategy must panic at the call, on the
    // caller's thread — not scribble past the lane/shard arrays or a
    // method's edge table, nor (for the ring) die later on the
    // collector thread.
    const auto past_method = static_cast<bytecode::MethodId>(cfgs_.size());
    const cfg::Graph &graph = cfgs_[method_].graph;
    const cfg::EdgeRef past_block{
        static_cast<cfg::BlockId>(graph.numBlocks()), 0};
    const cfg::EdgeRef past_succ{
        edge_.src, static_cast<std::uint32_t>(graph.succs(edge_.src).size())};
    const auto expect_rejected = [&](runtime::ProfileAggregator &aggregator,
                                     bool checks_shard) {
        if (checks_shard) {
            EXPECT_THROW(aggregator.recordEdge(2, method_, edge_),
                         support::PanicError);
            EXPECT_THROW(aggregator.recordPath(2, method_, 1),
                         support::PanicError);
            EXPECT_THROW(aggregator.flush(2), support::PanicError);
        }
        EXPECT_THROW(aggregator.recordEdge(0, past_method, edge_),
                     support::PanicError);
        EXPECT_THROW(aggregator.recordPath(0, past_method, 1),
                     support::PanicError);
        EXPECT_THROW(aggregator.recordEdge(0, method_, past_block),
                     support::PanicError);
        EXPECT_THROW(aggregator.recordEdge(0, method_, past_succ),
                     support::PanicError);
        EXPECT_THROW(aggregator.recordEdge(0, method_, {edge_.src, 7}),
                     support::PanicError);
    };

    runtime::RingOptions options;
    runtime::RingAggregator ring(cfgPtrs_, 2, options);
    expect_rejected(ring, /*checks_shard=*/true);
    EXPECT_THROW(ring.globalEdges(), support::PanicError)
        << "the collector may still be writing before quiesce()";
    EXPECT_THROW(ring.globalPaths(), support::PanicError);
    EXPECT_THROW(ring.mergedWindow(), support::PanicError);
    ring.quiesce();
    EXPECT_EQ(ring.stats().produced, 0u)
        << "rejected calls must not touch the lanes";
    EXPECT_EQ(ring.globalEdges().totalCount(), 0u);
    EXPECT_TRUE(ring.globalPaths().empty());

    runtime::ShardedAggregator sharded(cfgPtrs_, 2);
    expect_rejected(sharded, /*checks_shard=*/true);
    sharded.flush(0);
    sharded.flush(1);
    EXPECT_EQ(sharded.flushes(), 0u)
        << "rejected calls must not reach the shard buffers";

    // The mutex baseline ignores the shard index, and checks the rest.
    runtime::MutexAggregator mutex_global(cfgPtrs_);
    expect_rejected(mutex_global, /*checks_shard=*/false);
    EXPECT_EQ(mutex_global.globalEdges().totalCount(), 0u);
    EXPECT_TRUE(mutex_global.globalPaths().empty());
    mutex_global.recordPath(2, method_, 1);
    EXPECT_EQ(mutex_global.globalPaths().size(), 1u);
}

TEST_F(RuntimeRingProfileTest, MonitorThreadPollsShardedStatsMidRun)
{
    // Regression test for the flushes_ data race: a monitor thread
    // polls flushes() continuously while workers flush under the
    // merge lock. With a plain (non-atomic) counter TSan flags this;
    // with the atomic it is clean and the final count is exact.
    constexpr std::uint32_t kWorkers = 3;
    constexpr std::uint64_t kFlushesPerWorker = 400;
    runtime::ShardedAggregator sharded(cfgPtrs_, kWorkers);
    std::atomic<bool> done{false};

    std::thread monitor([&] {
        std::uint64_t last = 0;
        while (!done.load(std::memory_order_acquire)) {
            const std::uint64_t now = sharded.flushes();
            EXPECT_GE(now, last) << "flush count went backwards";
            last = now;
            std::this_thread::yield();
        }
    });

    {
        std::vector<std::thread> workers;
        for (std::uint32_t w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
                for (std::uint64_t i = 0; i < kFlushesPerWorker; ++i) {
                    sharded.recordEdge(w, method_, edge_);
                    sharded.recordPath(w, method_, i % 8);
                    sharded.flush(w);
                }
            });
        }
        for (std::thread &worker : workers)
            worker.join();
    }
    done.store(true, std::memory_order_release);
    monitor.join();

    EXPECT_EQ(sharded.flushes(), kWorkers * kFlushesPerWorker);
    EXPECT_EQ(sharded.globalEdges().perMethod[method_].edgeCount(edge_),
              kWorkers * kFlushesPerWorker);
}

TEST_F(RuntimeRingProfileTest, MonitorThreadPollsRingStatsMidRun)
{
    // Same contract for the ring transport: stats() is advertised as
    // safe from any thread at any time — prove it with the collector
    // running, producers pushing, and a monitor summing counters.
    constexpr std::uint32_t kWorkers = 3;
    runtime::RingOptions options;
    options.capacity = 256;
    runtime::RingAggregator ring(cfgPtrs_, kWorkers, options);
    std::atomic<bool> done{false};

    std::thread monitor([&] {
        while (!done.load(std::memory_order_acquire)) {
            const runtime::RingTransportStats stats = ring.stats();
            EXPECT_LE(stats.consumed + stats.dropped, stats.produced)
                << "mid-run counters overtook production";
            std::this_thread::yield();
        }
    });

    {
        std::vector<std::thread> workers;
        for (std::uint32_t w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
                for (std::uint64_t i = 0; i < 4000; ++i) {
                    ring.recordEdge(w, method_, edge_);
                    if (i % 64 == 0)
                        ring.flush(w);
                }
                ring.flush(w);
            });
        }
        for (std::thread &worker : workers)
            worker.join();
    }
    ring.quiesce();
    done.store(true, std::memory_order_release);
    monitor.join();

    const runtime::RingTransportStats stats = ring.stats();
    EXPECT_EQ(stats.produced, kWorkers * 4000u);
    EXPECT_EQ(stats.produced, stats.consumed + stats.dropped);
}

} // namespace
} // namespace pep
