/**
 * @file
 * Tests of the concurrent profiling runtime: the request-stream
 * workload, the deterministic cooperative scheduler, and the sharded
 * aggregation layer. The binary carries the `runtime` label, so the
 * TSan sweep (`ctest -L runtime`) runs it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "common/fixtures.hh"
#include "support/rng.hh"
#include "runtime/coop_scheduler.hh"
#include "runtime/request_stream.hh"
#include "runtime/sharded_profile.hh"
#include "runtime/throughput.hh"
#include "testing/observables.hh"
#include "testing/service_oracle.hh"
#include "vm/interpreter.hh"
#include "vm/machine.hh"

namespace pep {
namespace {

runtime::RequestStreamSpec
smallSpec(std::uint64_t seed = 7, std::uint32_t requests = 48)
{
    runtime::RequestStreamSpec spec;
    spec.seed = seed;
    spec.requests = requests;
    spec.handlers = 3;
    spec.leaves = 2;
    return spec;
}

vm::SimParams
fastTickParams()
{
    vm::SimParams params;
    params.tickCycles = 5'000;
    return params;
}

TEST(RuntimeRequestStreamTest, GeneratesProgramAndStream)
{
    const runtime::RequestStreamSpec spec = smallSpec();
    runtime::RequestStream stream(spec);

    // main + leaves + handlers (build() already ran the verifier).
    EXPECT_EQ(stream.program().methods.size(),
              1 + spec.leaves + spec.handlers);
    EXPECT_EQ(stream.requests().size(), spec.requests);
    for (const runtime::Request &request : stream.requests()) {
        EXPECT_LT(request.handler, spec.handlers);
        EXPECT_GE(request.arg, 0);
    }
}

TEST(RuntimeRequestStreamTest, ShardsPartitionTheStream)
{
    runtime::RequestStream stream(smallSpec(3, 41));
    const std::uint32_t shards = 4;
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::vector<runtime::Request> shard =
            stream.shard(s, shards);
        for (std::size_t i = 0; i < shard.size(); ++i) {
            const runtime::Request &want =
                stream.requests()[s + i * shards];
            EXPECT_EQ(shard[i].handler, want.handler);
            EXPECT_EQ(shard[i].arg, want.arg);
        }
        total += shard.size();
    }
    EXPECT_EQ(total, stream.requests().size());
}

TEST(RuntimeRequestStreamTest, ArgumentDistributionShiftsAtPhaseSplit)
{
    runtime::RequestStreamSpec spec = smallSpec(5, 100);
    spec.phaseSplit = 0.5;
    runtime::RequestStream stream(spec);
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(stream.requests()[i].arg & 0x3000, 0) << "i=" << i;
    for (std::size_t i = 50; i < 100; ++i)
        EXPECT_EQ(stream.requests()[i].arg & 0x3000, 0x3000)
            << "i=" << i;
}

TEST(RuntimeRequestStreamTest, MainRunsAsPlainIterationWorkload)
{
    runtime::RequestStream stream(smallSpec());
    vm::Machine machine(stream.program(), fastTickParams());
    machine.runIteration();
    EXPECT_GT(machine.stats().instructionsExecuted, 0u);
}

TEST(RuntimeCoopSchedulerTest, CompletesEveryRequestAndSwitches)
{
    runtime::RequestStream stream(smallSpec(9, 64));
    vm::Machine machine(stream.program(), fastTickParams());
    runtime::CoopOptions options;
    options.threads = 4;
    options.seed = 1;
    runtime::CoopScheduler scheduler(machine, options);
    scheduler.assignRoundRobin(stream);
    scheduler.run();

    EXPECT_EQ(scheduler.stats().requestsCompleted, 64u);
    // A 5k-cycle tick over tens of requests must preempt somewhere.
    EXPECT_GT(scheduler.stats().contextSwitches, 0u);
    EXPECT_EQ(machine.scheduler(), nullptr) << "scheduler detached";
}

TEST(RuntimeCoopSchedulerTest, SameSeedsReproduceGroundTruth)
{
    runtime::RequestStream stream(smallSpec(13, 56));
    profile::EdgeProfileSet first;
    for (int run = 0; run < 2; ++run) {
        vm::Machine machine(stream.program(), fastTickParams());
        runtime::CoopScheduler scheduler(machine, {3, 77});
        scheduler.assignRoundRobin(stream);
        scheduler.run();
        if (run == 0)
            first = machine.truthEdges();
        else
            EXPECT_EQ(machine.truthEdges(), first);
    }
}

TEST(RuntimeCoopSchedulerTest, InterleavingDoesNotChangeGroundTruth)
{
    // Handlers are thread-pure: a different scheduler seed changes the
    // interleaving (and hence sampling), but never what each thread
    // executes — merged ground truth is schedule-invariant.
    runtime::RequestStream stream(smallSpec(21, 60));
    profile::EdgeProfileSet first;
    std::uint64_t first_switches = 0;
    const std::uint64_t seeds[2] = {1, 999};
    for (int run = 0; run < 2; ++run) {
        vm::Machine machine(stream.program(), fastTickParams());
        runtime::CoopScheduler scheduler(machine, {4, seeds[run]});
        scheduler.assignRoundRobin(stream);
        scheduler.run();
        if (run == 0) {
            first = machine.truthEdges();
            first_switches = scheduler.stats().contextSwitches;
        } else {
            EXPECT_GT(scheduler.stats().contextSwitches, 0u);
            EXPECT_EQ(machine.truthEdges(), first);
        }
    }
    EXPECT_GT(first_switches, 0u);
}

TEST(RuntimeCoopSchedulerTest, SingleThreadMatchesDirectInterpreter)
{
    runtime::RequestStream stream(smallSpec(17, 40));

    vm::Machine coop_machine(stream.program(), fastTickParams());
    runtime::CoopScheduler scheduler(coop_machine, {1, 5});
    scheduler.assignRoundRobin(stream);
    scheduler.run();

    vm::Machine direct_machine(stream.program(), fastTickParams());
    vm::Interpreter interp(direct_machine, 0);
    for (const runtime::Request &request : stream.requests()) {
        interp.start(stream.handlerMethod(request.handler),
                     {request.arg});
        while (!interp.resume()) {
        }
    }

    EXPECT_EQ(coop_machine.truthEdges(), direct_machine.truthEdges());
}

TEST(RuntimeCoopSchedulerTest, ThreadedEngineMatchesSwitchUnderCoop)
{
    // The pre-decoded threaded engine (docs/ENGINE.md) must park and
    // resume virtual threads exactly like the switch interpreter: the
    // serialized runs, scheduler counters included, are identical.
    runtime::RequestStream stream(smallSpec(19, 52));
    std::string first;
    std::uint64_t first_switches = 0;
    const vm::EngineKind kinds[2] = {vm::EngineKind::Switch,
                                     vm::EngineKind::Threaded};
    for (int run = 0; run < 2; ++run) {
        vm::SimParams params = fastTickParams();
        params.engine = kinds[run];
        vm::Machine machine(stream.program(), params);
        runtime::CoopScheduler scheduler(machine, {4, 23});
        scheduler.assignRoundRobin(stream);
        scheduler.run();
        EXPECT_EQ(scheduler.stats().requestsCompleted, 52u);
        const std::string blob =
            testing::serializeRun(machine, {.coop = &scheduler.stats()});
        if (run == 0) {
            first = blob;
            first_switches = scheduler.stats().contextSwitches;
        } else {
            EXPECT_EQ(blob, first);
        }
    }
    EXPECT_GT(first_switches, 0u);
}

class RuntimeShardedProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stream_ = std::make_unique<runtime::RequestStream>(smallSpec());
        for (const bytecode::Method &method :
             stream_->program().methods)
            cfgs_.push_back(bytecode::buildCfg(method));
        for (const bytecode::MethodCfg &method_cfg : cfgs_)
            cfgPtrs_.push_back(&method_cfg);
    }

    std::unique_ptr<runtime::RequestStream> stream_;
    std::vector<bytecode::MethodCfg> cfgs_;
    std::vector<const bytecode::MethodCfg *> cfgPtrs_;
};

TEST_F(RuntimeShardedProfileTest, FlushPublishesAndClears)
{
    runtime::ShardedAggregator sharded(cfgPtrs_, 2);
    const cfg::EdgeRef edge{0, 0};

    sharded.recordEdge(0, 1, edge, 3);
    sharded.recordPath(0, 1, 42, 2);
    sharded.recordEdge(1, 1, edge, 1);

    // Nothing global until the owning shard flushes.
    EXPECT_EQ(sharded.globalEdges().perMethod[1].edgeCount(edge), 0u);
    sharded.flush(0);
    EXPECT_EQ(sharded.globalEdges().perMethod[1].edgeCount(edge), 3u);
    EXPECT_EQ(sharded.globalPaths().at(runtime::PathKey{1, 42}), 2u);
    sharded.flush(1);
    EXPECT_EQ(sharded.globalEdges().perMethod[1].edgeCount(edge), 4u);
    EXPECT_EQ(sharded.flushes(), 2u);

    // Flushing an empty shard is a no-op (no lock-and-merge churn).
    sharded.flush(0);
    EXPECT_EQ(sharded.flushes(), 2u);
    EXPECT_EQ(sharded.globalEdges().perMethod[1].edgeCount(edge), 4u);
}

TEST_F(RuntimeShardedProfileTest, StrategiesAgreeOnIdenticalInput)
{
    runtime::ShardedAggregator sharded(cfgPtrs_, 3);
    runtime::MutexAggregator mutex_global(cfgPtrs_);

    support::Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const auto shard = static_cast<std::uint32_t>(rng.nextBounded(3));
        const auto method = static_cast<bytecode::MethodId>(
            rng.nextBounded(cfgs_.size()));
        if (cfgs_[method].graph.numBlocks() == 0)
            continue;
        const auto block = static_cast<cfg::BlockId>(
            rng.nextBounded(cfgs_[method].graph.numBlocks()));
        if (!cfgs_[method].graph.succs(block).empty()) {
            const cfg::EdgeRef edge{block, 0};
            sharded.recordEdge(shard, method, edge);
            mutex_global.recordEdge(shard, method, edge);
        }
        const std::uint64_t path_number = rng.nextBounded(32);
        sharded.recordPath(shard, method, path_number);
        mutex_global.recordPath(shard, method, path_number);
    }
    for (std::uint32_t s = 0; s < 3; ++s)
        sharded.flush(s);

    EXPECT_EQ(sharded.globalEdges(), mutex_global.globalEdges());
    EXPECT_EQ(sharded.globalPaths(), mutex_global.globalPaths());
}

TEST(RuntimeThroughputTest, ShardedAndMutexProduceIdenticalProfiles)
{
    runtime::RequestStream stream(smallSpec(31, 120));
    runtime::ThroughputOptions options;
    options.workers = 4;
    options.epochRequests = 8;
    options.params = fastTickParams();

    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult sharded =
        runtime::runThroughput(stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult mutex_global =
        runtime::runThroughput(stream, options);

    EXPECT_EQ(sharded.requestsCompleted, 120u);
    EXPECT_EQ(mutex_global.requestsCompleted, 120u);
    EXPECT_GT(sharded.pathRecords, 0u);
    EXPECT_EQ(sharded.pathRecords, mutex_global.pathRecords);
    EXPECT_EQ(sharded.edgeRecords, mutex_global.edgeRecords);
    EXPECT_EQ(sharded.edges, mutex_global.edges);
    EXPECT_EQ(sharded.paths, mutex_global.paths);
}

TEST(RuntimeThroughputTest, TotalsMatchPerShardSoloOracle)
{
    // Workers publish each epoch's path counts; whatever the epoch
    // length, engine, compilation or aggregation, every completed path
    // must reach the totals exactly once. The oracle replays each shard
    // alone under a full path profiler, bypassing recorder and
    // aggregator alike. The default ring holds every record a shard
    // this small produces, so the ring runs cannot drop.
    runtime::RequestStream stream(smallSpec(43, 96));
    constexpr std::uint32_t kWorkers = 3;
    const std::uint32_t past_shard =
        static_cast<std::uint32_t>(stream.requests().size()) + 1;
    for (const vm::EngineKind engine :
         {vm::EngineKind::Switch, vm::EngineKind::Threaded}) {
        for (const bool inline_and_osr : {false, true}) {
            vm::SimParams params = fastTickParams();
            params.engine = engine;
            params.enableInlining = inline_and_osr;
            params.enableOsr = inline_and_osr;
            const testing::ServiceTotals oracle =
                testing::soloServiceTotals(stream, kWorkers, params);
            ASSERT_GT(oracle.edges.totalCount(), 0u);
            for (const std::uint32_t epoch : {1u, 7u, 64u, past_shard}) {
                for (const auto aggregation :
                     {runtime::ThroughputOptions::Aggregation::Sharded,
                      runtime::ThroughputOptions::Aggregation::Mutex,
                      runtime::ThroughputOptions::Aggregation::Ring}) {
                    SCOPED_TRACE(
                        std::string(vm::engineKindName(engine)) +
                        (inline_and_osr ? ", inlining+OSR" : "") +
                        ", epochRequests " + std::to_string(epoch) +
                        ", aggregation " +
                        std::to_string(static_cast<int>(aggregation)));
                    runtime::ThroughputOptions options;
                    options.workers = kWorkers;
                    options.epochRequests = epoch;
                    options.aggregation = aggregation;
                    options.params = params;
                    const runtime::ThroughputResult result =
                        runtime::runThroughput(stream, options);
                    ASSERT_EQ(result.transport.dropped, 0u);
                    EXPECT_EQ(testing::serviceTotalsMismatches(result,
                                                               oracle),
                              std::vector<std::string>{});
                }
            }
        }
    }
}

TEST(RuntimeThroughputTest, ThreadedEngineMatchesSwitchTotals)
{
    // Same partitioning, same seeds, different execution engine per
    // worker machine: merged profiles must agree count-for-count (and
    // TSan runs this under real OS threads with the threaded engine).
    runtime::RequestStream stream(smallSpec(41, 96));
    runtime::ThroughputOptions options;
    options.workers = 4;
    options.epochRequests = 8;
    options.params = fastTickParams();

    options.params.engine = vm::EngineKind::Switch;
    const runtime::ThroughputResult sw =
        runtime::runThroughput(stream, options);
    options.params.engine = vm::EngineKind::Threaded;
    const runtime::ThroughputResult th =
        runtime::runThroughput(stream, options);

    EXPECT_EQ(sw.requestsCompleted, 96u);
    EXPECT_EQ(th.requestsCompleted, 96u);
    EXPECT_EQ(sw.pathRecords, th.pathRecords);
    EXPECT_EQ(sw.edgeRecords, th.edgeRecords);
    EXPECT_EQ(sw.paths, th.paths);
    EXPECT_EQ(sw.edges, th.edges);
}

TEST(RuntimeThroughputTest, RepeatRunsProduceIdenticalTotals)
{
    // Each worker's machine simulation is seeded, so for a fixed
    // worker count the merged totals are independent of OS scheduling:
    // racing the same run twice must agree count-for-count. (Changing
    // the worker count legitimately changes totals — it repartitions
    // the stream across machines and hence across Irnd streams.)
    runtime::RequestStream stream(smallSpec(37, 90));
    runtime::ThroughputOptions options;
    options.workers = 3;
    options.epochRequests = 16;
    options.params = fastTickParams();

    const runtime::ThroughputResult first =
        runtime::runThroughput(stream, options);
    const runtime::ThroughputResult second =
        runtime::runThroughput(stream, options);

    EXPECT_EQ(first.paths, second.paths);
    EXPECT_EQ(first.edges, second.edges);
}

} // namespace
} // namespace pep
