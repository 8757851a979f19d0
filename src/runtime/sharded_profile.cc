#include "runtime/sharded_profile.hh"

#include "support/panic.hh"

namespace pep::runtime {

ProfileAggregator::ProfileAggregator(
    const std::vector<const bytecode::MethodCfg *> &cfgs,
    std::uint32_t shards)
    : numShards_(shards), edges_(cfgs)
{
}

void
ProfileAggregator::checkShard(std::uint32_t shard) const
{
    // An out-of-range worker index is a caller bug; indexing a shard
    // or lane array with it would be silent UB.
    PEP_ASSERT(numShards_ == 0 || shard < numShards_);
}

void
ProfileAggregator::recordEdge(std::uint32_t shard,
                              bytecode::MethodId method,
                              cfg::EdgeRef edge, std::uint64_t n)
{
    checkShard(shard);
    PEP_ASSERT(method < edges_.perMethod.size());
    // The table is shaped like the method's CFG. Its shape never
    // changes, so reading it here races with no fold.
    const auto &counts = edges_.perMethod[method].counts();
    PEP_ASSERT(edge.src < counts.size());
    PEP_ASSERT(edge.index < counts[edge.src].size());
    record(shard, SampleRecord::forEdge(method, edge, n));
}

void
ProfileAggregator::recordPath(std::uint32_t shard,
                              bytecode::MethodId method,
                              std::uint64_t path_number, std::uint64_t n)
{
    checkShard(shard);
    PEP_ASSERT(method < edges_.perMethod.size());
    record(shard, SampleRecord::forPath(method, path_number, n));
}

const profile::EdgeProfileSet &
ProfileAggregator::globalEdges() const
{
    PEP_ASSERT(quiescent());
    return edges_;
}

const PathTotals &
ProfileAggregator::globalPaths() const
{
    PEP_ASSERT(quiescent());
    return paths_;
}

void
ProfileAggregator::add(const SampleRecord &record)
{
    switch (record.kind) {
      case SampleRecord::Kind::Edge:
        edges_.perMethod[record.method].addEdge(record.edge,
                                                record.count);
        return;
      case SampleRecord::Kind::Path:
        paths_[PathKey{record.method, record.pathNumber}] +=
            record.count;
        return;
      case SampleRecord::Kind::EpochMark:
        break;
    }
    PEP_PANIC("an epoch mark carries no counts");
}

ShardedAggregator::ShardedAggregator(
    const std::vector<const bytecode::MethodCfg *> &cfgs,
    std::uint32_t shards)
    : ProfileAggregator(cfgs, shards)
{
    PEP_ASSERT(shards > 0);
    shards_.resize(shards);
}

void
ShardedAggregator::record(std::uint32_t shard, const SampleRecord &record)
{
    shards_[shard].records.push_back(record);
}

void
ShardedAggregator::flush(std::uint32_t shard)
{
    checkShard(shard);
    std::vector<SampleRecord> &records = shards_[shard].records;
    if (records.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(flushMutex_);
        for (const SampleRecord &record : records)
            add(record);
        flushes_.fetch_add(1, std::memory_order_relaxed);
    }
    records.clear();
}

MutexAggregator::MutexAggregator(
    const std::vector<const bytecode::MethodCfg *> &cfgs)
    : ProfileAggregator(cfgs, /*shards=*/0)
{
}

void
MutexAggregator::record(std::uint32_t /*shard*/,
                        const SampleRecord &record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    add(record);
}

} // namespace pep::runtime
