#include "runtime/throughput.hh"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/path_engine.hh"
#include "core/path_gains.hh"
#include "profile/path_profile.hh"
#include "support/panic.hh"
#include "vm/interpreter.hh"

namespace pep::runtime {

namespace {

/**
 * A PathEngine that counts *every* completed path — the heaviest
 * producer the aggregation strategies face: where PEP samples a
 * handful of paths per tick, this profiles every completion. A
 * completion is one probe and one increment of the version's own path
 * table; publish() hands the epoch's gains to the shared aggregator:
 * one path record per path that completed, then one edge record per
 * distinct bytecode edge those paths fold onto, each carrying the
 * summed gain.
 */
class StreamRecorder final : public core::PathEngine
{
  public:
    StreamRecorder(vm::Machine &machine, ProfileAggregator &sink,
                   std::uint32_t shard)
        : PathEngine(machine, profile::DagMode::HeaderSplit,
                     profile::NumberingScheme::BallLarus,
                     /*charge_costs=*/false,
                     profile::PlacementKind::Direct),
          sink_(sink), shard_(shard)
    {
        edgeGains_.resize(machine.numMethods());
        for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m)
            edgeGains_[m].assign(machine.info(m).cfg.edgeBase.back(), 0);
    }

    /** Path completions, counted where they happen. */
    std::uint64_t pathRecords = 0;

    /** Folded edge executions, counted when they are published. */
    std::uint64_t edgeRecords = 0;

    /** Send every path counted since the last publish to the sink.
     *  Call before each aggregator flush of this shard. */
    void
    publish()
    {
        completed_.drain([this](core::VersionProfile &vp,
                                std::uint64_t path_number,
                                profile::PathRecord &record,
                                std::uint64_t gain) {
            const core::MethodProfilingState &state = *vp.state;
            if (!record.expanded) {
                profile::expandRecord(record, *state.reconstructor,
                                      path_number, &state.kpath);
            }
            sink_.recordPath(shard_, state.method, path_number, gain);
            core::forEachBytecodeEdge(
                state, record,
                [&](bytecode::MethodId method, cfg::EdgeRef edge) {
                    std::uint64_t &sum = edgeGain(method, edge);
                    if (sum == 0)
                        touched_.push_back({method, edge});
                    sum += gain;
                    edgeRecords += gain;
                });
        });
        for (const auto &[method, edge] : touched_) {
            std::uint64_t &sum = edgeGain(method, edge);
            sink_.recordEdge(shard_, method, edge, sum);
            sum = 0;
        }
        touched_.clear();
    }

  protected:
    void
    pathCompleted(core::VersionProfile &vp, std::uint64_t path_number,
                  std::uint32_t /*thread*/) override
    {
        completed_.count(vp, vp.paths.insert(path_number));
        ++pathRecords;
    }

  private:
    std::uint64_t &
    edgeGain(bytecode::MethodId method, cfg::EdgeRef edge)
    {
        return edgeGains_[method][vm_.info(method).cfg.flatEdgeId(edge)];
    }

    ProfileAggregator &sink_;
    const std::uint32_t shard_;
    core::PathGains completed_;

    /** This epoch's gain per bytecode edge, indexed [method]
     *  [MethodCfg::flatEdgeId]; zero outside publish(). */
    std::vector<std::vector<std::uint64_t>> edgeGains_;

    /** The edges with a nonzero gain, in first-touched order. */
    std::vector<std::pair<bytecode::MethodId, cfg::EdgeRef>> touched_;
};

struct WorkerTally
{
    std::uint64_t requests = 0;
    std::uint64_t pathRecords = 0;
    std::uint64_t edgeRecords = 0;
};

/** One worker: a private machine simulating its stream shard,
 *  publishing its epoch's paths to the shared aggregator and flushing
 *  at each epoch boundary. */
void
workerBody(const RequestStream &stream, const ThroughputOptions &options,
           ProfileAggregator &aggregator, std::uint32_t worker,
           WorkerTally &tally)
{
    vm::Machine machine(stream.program(), options.params);
    StreamRecorder recorder(machine, aggregator, worker);
    machine.addHooks(&recorder);
    machine.addCompileObserver(&recorder);
    vm::Interpreter interp(machine, 0);

    const std::vector<Request> shard =
        stream.shard(worker, options.workers);
    std::uint32_t since_flush = 0;
    for (const Request &request : shard) {
        interp.start(stream.handlerMethod(request.handler),
                     {request.arg});
        while (!interp.resume()) {
        }
        ++tally.requests;
        if (++since_flush >= options.epochRequests) {
            recorder.publish();
            aggregator.flush(worker);
            since_flush = 0;
        }
    }
    recorder.publish();
    aggregator.flush(worker);
    tally.pathRecords = recorder.pathRecords;
    tally.edgeRecords = recorder.edgeRecords;
}

} // namespace

ThroughputResult
runThroughput(const RequestStream &stream,
              const ThroughputOptions &options)
{
    PEP_ASSERT(options.workers > 0);
    PEP_ASSERT(options.epochRequests > 0);

    std::vector<bytecode::MethodCfg> cfgs;
    cfgs.reserve(stream.program().methods.size());
    for (const bytecode::Method &method : stream.program().methods)
        cfgs.push_back(bytecode::buildCfg(method));
    std::vector<const bytecode::MethodCfg *> cfg_ptrs;
    cfg_ptrs.reserve(cfgs.size());
    for (const bytecode::MethodCfg &method_cfg : cfgs)
        cfg_ptrs.push_back(&method_cfg);

    std::unique_ptr<ProfileAggregator> aggregator;
    switch (options.aggregation) {
      case ThroughputOptions::Aggregation::Sharded:
        aggregator = std::make_unique<ShardedAggregator>(
            cfg_ptrs, options.workers);
        break;
      case ThroughputOptions::Aggregation::Mutex:
        aggregator = std::make_unique<MutexAggregator>(cfg_ptrs);
        break;
      case ThroughputOptions::Aggregation::Ring:
        aggregator = std::make_unique<RingAggregator>(
            cfg_ptrs, options.workers, options.ring);
        break;
    }

    std::vector<WorkerTally> tallies(options.workers);
    const auto wall_start = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> workers;
        workers.reserve(options.workers);
        for (std::uint32_t w = 0; w < options.workers; ++w) {
            workers.emplace_back(workerBody, std::cref(stream),
                                 std::cref(options),
                                 std::ref(*aggregator), w,
                                 std::ref(tallies[w]));
        }
        for (std::thread &worker : workers)
            worker.join();
    }
    // Producers are done; drain and stop any background collection
    // before the wall clock stops (the collector's backlog is part of
    // the cost of the run) and before the profiles are read.
    aggregator->quiesce();
    const auto wall_end = std::chrono::steady_clock::now();

    ThroughputResult result;
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    for (const WorkerTally &tally : tallies) {
        result.requestsCompleted += tally.requests;
        result.pathRecords += tally.pathRecords;
        result.edgeRecords += tally.edgeRecords;
    }
    result.requestsPerSecond =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.requestsCompleted) /
                  result.wallSeconds
            : 0.0;
    result.edges = aggregator->globalEdges();
    result.paths = aggregator->globalPaths();
    if (const auto *sharded =
            dynamic_cast<const ShardedAggregator *>(aggregator.get())) {
        result.shardFlushes = sharded->flushes();
    } else if (const auto *ring = dynamic_cast<const RingAggregator *>(
                   aggregator.get())) {
        result.transport = ring->stats();
        const WindowedProfile &window = ring->mergedWindow();
        result.windowAdvances = window.advances();
        result.windowStalenessEpochs = window.stalenessEpochs();
        result.windowMass = window.mass();
    }
    return result;
}

} // namespace pep::runtime
