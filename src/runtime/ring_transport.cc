#include "runtime/ring_transport.hh"

#include "support/panic.hh"

namespace pep::runtime {

RingAggregator::RingAggregator(
    const std::vector<const bytecode::MethodCfg *> &cfgs,
    std::uint32_t shards, const RingOptions &options)
    : ProfileAggregator(cfgs, shards), options_(options)
{
    PEP_ASSERT(shards > 0);
    lanes_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s)
        lanes_.push_back(std::make_unique<Lane>(options.capacity));
    windows_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s)
        windows_.emplace_back(cfgs, kWindowDecay);
    collector_ = std::thread([this] { collectorBody(); });
}

RingAggregator::~RingAggregator()
{
    if (collector_.joinable()) {
        stopRequested_.store(true, std::memory_order_release);
        collector_.join();
    }
}

void
RingAggregator::record(std::uint32_t shard, const SampleRecord &record)
{
    Lane &lane = *lanes_[shard];
    const std::uint64_t nth =
        lane.produced.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.injectLoseAt != 0 && shard == 0 &&
        nth == options_.injectLoseAt) {
        // ring-lost-sample injection: the record vanishes without a
        // drop-counter bump — the bug class the conservation check
        // (differ check 5) exists to catch.
        return;
    }
    // Release, so a monitor that reads this drop (acquire, in stats())
    // also sees the produced increment above — the mid-run invariant
    // consumed + dropped <= produced must never flicker.
    if (!lane.ring.tryPush(record))
        lane.dropped.fetch_add(1, std::memory_order_release);
}

void
RingAggregator::flush(std::uint32_t shard)
{
    checkShard(shard);
    Lane &lane = *lanes_[shard];
    lane.epochMarks.fetch_add(1, std::memory_order_relaxed);
    if (!lane.ring.tryPush(SampleRecord::epochMark()))
        lane.droppedEpochMarks.fetch_add(1, std::memory_order_release);
}

void
RingAggregator::apply(std::uint32_t shard, const SampleRecord &record)
{
    // The entry points checked the record before it was pushed.
    switch (record.kind) {
      case SampleRecord::Kind::Edge:
        windows_[shard].addEdge(record.method, record.edge,
                                record.count);
        break;
      case SampleRecord::Kind::Path:
        windows_[shard].addPath(record.method, record.pathNumber,
                                record.count);
        break;
      case SampleRecord::Kind::EpochMark:
        windows_[shard].advance();
        return;
    }
    add(record);
}

bool
RingAggregator::sweepOnce()
{
    // Bounded batch per lane per sweep, so one firehose lane cannot
    // starve the others' windows indefinitely.
    constexpr int kBatch = 1024;
    bool drained = false;
    SampleRecord record;
    for (std::uint32_t s = 0; s < lanes_.size(); ++s) {
        Lane &lane = *lanes_[s];
        for (int i = 0; i < kBatch && lane.ring.tryPop(record); ++i) {
            apply(s, record);
            if (record.kind != SampleRecord::Kind::EpochMark) {
                lane.consumedSamples.fetch_add(
                    1, std::memory_order_release);
            }
            drained = true;
        }
    }
    return drained;
}

void
RingAggregator::collectorBody()
{
    while (true) {
        if (!sweepOnce()) {
            // Producers stop before stopRequested_ is set (quiesce()'s
            // contract), so an empty sweep after the flag means the
            // rings are drained for good.
            if (stopRequested_.load(std::memory_order_acquire))
                break;
            std::this_thread::yield();
        }
    }
}

void
RingAggregator::quiesce()
{
    if (!collector_.joinable())
        return;
    stopRequested_.store(true, std::memory_order_release);
    collector_.join();
    while (sweepOnce()) {
        // Belt and braces: the collector already drained everything,
        // but a straggler push between its last sweep and the join
        // would land here.
    }
    for (const WindowedProfile &window : windows_)
        mergedWindow_.merge(window);
}

RingTransportStats
RingAggregator::stats() const
{
    RingTransportStats stats;
    for (const std::unique_ptr<Lane> &lane : lanes_) {
        // Read the "record accounted for" counters first, with
        // acquire: their release increments carry the corresponding
        // produced/epochMarks increments with them, so a mid-run
        // snapshot always satisfies consumed + dropped <= produced
        // (and droppedEpochMarks <= epochMarks) per lane.
        stats.consumed +=
            lane->consumedSamples.load(std::memory_order_acquire);
        stats.dropped += lane->dropped.load(std::memory_order_acquire);
        stats.droppedEpochMarks +=
            lane->droppedEpochMarks.load(std::memory_order_acquire);
        stats.produced +=
            lane->produced.load(std::memory_order_relaxed);
        stats.epochMarks +=
            lane->epochMarks.load(std::memory_order_relaxed);
    }
    return stats;
}

const WindowedProfile &
RingAggregator::window(std::uint32_t shard) const
{
    PEP_ASSERT(quiescent());
    PEP_ASSERT(shard < windows_.size());
    return windows_[shard];
}

const WindowedProfile &
RingAggregator::mergedWindow() const
{
    PEP_ASSERT(quiescent());
    return mergedWindow_;
}

} // namespace pep::runtime
