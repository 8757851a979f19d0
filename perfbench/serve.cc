/**
 * @file
 * The `serve` workload: the request-stream service. Throughput comes
 * from runtime::runThroughput with sharded aggregation over one worker
 * per CPU but one (left to the system) and a stream of a million short
 * requests. Latency comes from a closed loop: one client, owning one
 * machine per configuration, issues the next request only after the
 * previous one returned, and times each from Interpreter::start until
 * resume() reports it done. Many short invocations stress method
 * entry/exit and per-request frame set-up rather than loop edges, and
 * the runtime's aggregation sits on the throughput path.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "common/harness.hh"
#include "metrics/overlap.hh"
#include "metrics/path_accuracy.hh"
#include "runtime/request_stream.hh"
#include "runtime/sharded_profile.hh"
#include "runtime/throughput.hh"
#include "vm/interpreter.hh"

namespace perfbench {

namespace {

/**
 * Records every completed path and the edges it expands to, like the
 * service's own recorder, so the aggregation cost can be replayed from
 * a fixed event stream.
 */
class EventRecorder final : public core::PathEngine
{
  public:
    explicit EventRecorder(vm::Machine &machine)
        : PathEngine(machine, profile::DagMode::HeaderSplit,
                     profile::NumberingScheme::BallLarus,
                     /*charge_costs=*/false)
    {
    }

    /** Path records carry the path number, edge records the edge. */
    struct Event
    {
        bool isPath = false;
        bytecode::MethodId method = 0;
        std::uint64_t number = 0;
        cfg::EdgeRef edge;
    };

    std::vector<Event> events;

  protected:
    void
    pathCompleted(core::VersionProfile &vp, std::uint64_t path_number,
                  std::uint32_t) override
    {
        profile::PathRecord &record = vp.paths.addSample(path_number);
        if (!record.expanded) {
            profile::expandRecord(record, *vp.state->reconstructor,
                                  path_number, &vp.state->kpath);
        }
        events.push_back({true, vp.state->method, path_number, {}});
        for (const cfg::EdgeRef &edge : record.cfgEdges)
            events.push_back({false, vp.state->method, 0, edge});
    }
};

/** Run one request to completion. */
void
serveOne(vm::Interpreter &interp, const runtime::RequestStream &stream,
         const runtime::Request &request)
{
    interp.start(stream.handlerMethod(request.handler), {request.arg});
    while (!interp.resume()) {
    }
}

class Serve final : public Workload
{
  public:
    explicit Serve(const Options &options) : options_(options)
    {
        // The service's handlers and its request stream are fixed; the
        // seed draws the machines' Irnd streams, the requests' random
        // input. Generating the handlers from the seed would make
        // request latency measure the size of the handlers drawn.
        spec_.seed = 701;
        spec_.requests = options.tiny ? 20'000 : 1'000'000;
        base_.tickCycles = 10'000;
        base_.rngSeed = deriveSeed(options.seed, 0x7ead);
        base_ = pinnedParams(Config{}, base_);
    }

    void
    setup(const std::vector<Config> &configs, Tracer &tracer) override
    {
        configs_ = configs;
        const Clock::time_point start = Clock::now();
        const int span = tracer.begin("workload.generate");
        stream_ = std::make_unique<runtime::RequestStream>(spec_);
        tracer.end(span);
        generateSeconds_ = secondsSince(start);

        // The latency loop serves a prefix of the stream; its first
        // requests warm each machine up (adaptive compilation) untimed.
        // One client: more would contend for the cores and widen the
        // tail with noise that is not the service's.
        const std::size_t served = options_.tiny ? 3'000 : 120'000;
        served_.assign(stream_->requests().begin(),
                       stream_->requests().begin() +
                           static_cast<std::ptrdiff_t>(served));
        for (const Config &config : configs) {
            rigs_.push_back(
                std::make_unique<Rig>(stream_->program(), config, base_));
            interps_.push_back(
                std::make_unique<vm::Interpreter>(rigs_.back()->machine()));
            for (std::size_t r = 0; r < 2'000; ++r)
                serveOne(*interps_.back(), *stream_, served_[r]);
        }
    }

    std::vector<Sample>
    round(Report &report) override
    {
        std::vector<Sample> samples(configs_.size());
        std::vector<Counters> before;
        for (const std::unique_ptr<Rig> &rig : rigs_)
            before.push_back(rig->counters());
        // Configurations take turns in blocks of requests: short enough
        // that machine noise hits all of them alike, long enough that
        // each machine runs with its own state in cache.
        constexpr std::size_t kBlock = 256;
        std::vector<std::uint64_t> executed(kBlock);
        std::uint64_t mismatches = 0;
        for (std::size_t begin = 0; begin < served_.size(); begin += kBlock) {
            const std::size_t end = std::min(begin + kBlock, served_.size());
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                const vm::Machine &machine = rigs_[c]->machine();
                for (std::size_t r = begin; r < end; ++r) {
                    const std::uint64_t instructions =
                        machine.stats().instructionsExecuted;
                    const Clock::time_point start = Clock::now();
                    serveOne(*interps_[c], *stream_, served_[r]);
                    const double wall = secondsSince(start);
                    samples[c].wall += wall;
                    samples[c].ops.add(wall * 1e6);
                    const std::uint64_t n =
                        machine.stats().instructionsExecuted - instructions;
                    if (c == 0)
                        executed[r - begin] = n;
                    else if (n != executed[r - begin])
                        ++mismatches;
                }
            }
        }
        report.check(mismatches == 0,
                     "serve: " + std::to_string(mismatches) +
                         " requests executed differently across "
                         "configurations");
        const vm::Machine &first = rigs_[0]->machine();
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            samples[c].counters = minus(rigs_[c]->counters(), before[c]);
            samples[c].groupWall.push_back(samples[c].wall);
            if (c > 0) {
                report.check(sameEdges(rigs_[c]->machine().truthEdges(),
                                       first.truthEdges()),
                             "serve: " + configs_[c].name() +
                                 " branch counts diverged");
            }
        }
        if (firstCycles_.empty()) {
            for (const Sample &sample : samples)
                firstCycles_.push_back(sample.counters.cycles);
        }
        return samples;
    }

    double
    throughputRep(const std::vector<Sample> &, Report &report) override
    {
        return runSharded(*stream_, report).requestsPerSecond;
    }

    void
    verify(Report &report) override
    {
        // The sharded service profile must equal a mutex-aggregated run
        // of a prefix of the stream, count for count.
        runtime::RequestStreamSpec prefix_spec = spec_;
        prefix_spec.requests = std::min<std::uint32_t>(
            options_.tiny ? 2'000 : 20'000, spec_.requests / 2);
        prefix_spec.phaseSplit = 1.0; // the stream's first half is unshifted
        const runtime::RequestStream prefix(prefix_spec);
        bool same_requests = true;
        for (std::size_t i = 0; i < prefix.requests().size(); ++i) {
            same_requests &=
                prefix.requests()[i].handler ==
                    stream_->requests()[i].handler &&
                prefix.requests()[i].arg == stream_->requests()[i].arg;
        }
        report.check(same_requests, "serve: prefix stream is not a prefix");
        const runtime::ThroughputResult sharded = runSharded(prefix, report);
        runtime::ThroughputOptions mutex_options = throughputOptions();
        mutex_options.aggregation =
            runtime::ThroughputOptions::Aggregation::Mutex;
        if (options_.injectDivergence)
            mutex_options.params.rngSeed += 1;
        const runtime::ThroughputResult mutex =
            runtime::runThroughput(prefix, mutex_options);
        report.check(sameEdges(sharded.edges, mutex.edges) &&
                         sharded.paths == mutex.paths,
                     "serve: sharded profile differs from the mutex run");

        // Both engines, unprofiled and with PEP, on the served prefix:
        // the switch engine is the reference.
        for (const Prof prof : {Prof::None, Prof::Pep}) {
            Config threaded;
            threaded.prof = prof;
            Config reference = threaded;
            reference.engine = vm::EngineKind::Switch;
            reference.fuse = vm::FuseOptions{};
            vm::SimParams reference_params = base_;
            if (options_.injectDivergence)
                reference_params.rngSeed += 1;
            Rig a(stream_->program(), threaded, base_);
            Rig b(stream_->program(), reference, reference_params);
            vm::Interpreter ia(a.machine());
            vm::Interpreter ib(b.machine());
            std::uint64_t mismatches = 0;
            for (const runtime::Request &request : served_) {
                serveOne(ia, *stream_, request);
                serveOne(ib, *stream_, request);
                mismatches += a.machine().now() != b.machine().now() ||
                              a.machine().stats().instructionsExecuted !=
                                  b.machine().stats().instructionsExecuted;
            }
            report.check(mismatches == 0 &&
                             sameEdges(a.machine().truthEdges(),
                                       b.machine().truthEdges()),
                         std::string("serve: threaded ") + profName(prof) +
                             " differs from the switch reference on " +
                             std::to_string(mismatches) + " requests");
        }

        const std::size_t pep = pepIndex();
        report.metric("cycle_ratio",
                      static_cast<double>(firstCycles_[pep]) /
                          static_cast<double>(firstCycles_[0]),
                      "ratio");

        // PEP's profiles against perfect ones over the served prefix.
        Config pep_config;
        pep_config.prof = Prof::Pep;
        Rig rig(stream_->program(), pep_config, base_);
        core::FullPathProfiler truth(rig.machine(),
                                     profile::DagMode::HeaderSplit,
                                     /*charge_costs=*/false);
        rig.machine().addHooks(&truth);
        rig.machine().addCompileObserver(&truth);
        vm::Interpreter interp(rig.machine());
        for (const runtime::Request &request : served_)
            serveOne(interp, *stream_, request);
        const profile::EdgeProfileSet perfect =
            core::edgeProfileFromPaths(rig.machine(), truth);
        report.metric("edge_overlap",
                      metrics::relativeOverlap(bench::allCfgs(rig.machine()),
                                               perfect,
                                               rig.pep()->edgeProfile()),
                      "fraction");
        report.metric("path_accuracy",
                      metrics::wallPathAccuracy(metrics::canonicalize(truth),
                                                metrics::canonicalize(
                                                    *rig.pep()))
                          .accuracy,
                      "fraction");
    }

    std::vector<const bytecode::Program *>
    programs() const override
    {
        return {&stream_->program()};
    }

    void
    layerProbes(Report &report, Tracer &tracer) override
    {
        report.metric("workload.generate_ms", generateSeconds_ * 1e3, "ms");
        report.metric("workload.advice_record_ms", 0.0, "ms");

        double seconds = 0.0;
        std::uint64_t paths = 0;
        probeExpansion(*rigs_[pepIndex()]->pep(), tracer, seconds, paths);
        report.metric("profile.expand_us",
                      paths ? seconds / static_cast<double>(paths) * 1e6
                            : 0.0,
                      "us");

        const runtime::ThroughputResult sharded =
            runSharded(*stream_, report);
        report.metric(
            "runtime.records_per_request",
            static_cast<double>(sharded.pathRecords + sharded.edgeRecords) /
                static_cast<double>(sharded.requestsCompleted),
            "count");
        report.metric("runtime.shard_flushes",
                      static_cast<double>(sharded.shardFlushes), "count");
        probeRecording(report, tracer);

        runtime::ThroughputOptions ring_options = throughputOptions();
        ring_options.aggregation =
            runtime::ThroughputOptions::Aggregation::Ring;
        const int span = tracer.begin("runtime.ring_run");
        const runtime::ThroughputResult ring =
            runtime::runThroughput(*stream_, ring_options);
        tracer.end(span);
        report.check(ring.requestsCompleted == spec_.requests &&
                         ring.transport.produced ==
                             ring.transport.consumed + ring.transport.dropped,
                     "serve: ring transport lost records silently");
        report.metric("runtime.ring_req_per_s", ring.requestsPerSecond,
                      "1/s");
        report.metric("runtime.ring_drop_rate", ring.transport.dropRate(),
                      "fraction");
        report.metric("runtime.ring_staleness_epochs",
                      ring.windowStalenessEpochs, "epochs");
    }

  private:
    std::size_t
    pepIndex() const
    {
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            if (configs_[c].prof == Prof::Pep && !configs_[c].counted)
                return c;
        }
        return 0;
    }

    /** The service's configuration: sharded aggregation, one worker
     *  per CPU but one, which is left to the system (with every CPU
     *  busy, any other load stalls one worker and the whole run). */
    runtime::ThroughputOptions
    throughputOptions() const
    {
        runtime::ThroughputOptions options;
        options.workers = std::max<std::uint32_t>(1, usableCpus() - 1);
        options.epochRequests = 64;
        options.aggregation = runtime::ThroughputOptions::Aggregation::Sharded;
        options.params = base_;
        return options;
    }

    /** One sharded service run, checked: every request completes and
     *  the merged profile holds exactly the records the workers made. */
    runtime::ThroughputResult
    runSharded(const runtime::RequestStream &stream, Report &report) const
    {
        const runtime::ThroughputResult result =
            runtime::runThroughput(stream, throughputOptions());
        std::uint64_t path_total = 0;
        for (const auto &[key, count] : result.paths)
            path_total += count;
        report.check(result.requestsCompleted == stream.requests().size() &&
                         path_total == result.pathRecords &&
                         result.edges.totalCount() == result.edgeRecords,
                     "serve: sharded run dropped requests or records");
        return result;
    }

    /** Replay a recorded event stream into a ShardedAggregator: ns per
     *  record, and microseconds per epoch flush. */
    void
    probeRecording(Report &report, Tracer &tracer) const
    {
        vm::Machine machine(stream_->program(), base_);
        EventRecorder recorder(machine);
        machine.addHooks(&recorder);
        machine.addCompileObserver(&recorder);
        vm::Interpreter interp(machine);
        const std::size_t requests =
            std::min<std::size_t>(served_.size(), 10'000);
        std::vector<std::size_t> ends;
        for (std::size_t r = 0; r < requests; ++r) {
            serveOne(interp, *stream_, served_[r]);
            ends.push_back(recorder.events.size());
        }

        std::vector<const bytecode::MethodCfg *> cfgs;
        for (std::size_t m = 0; m < machine.numMethods(); ++m)
            cfgs.push_back(
                &machine.info(static_cast<bytecode::MethodId>(m)).cfg);
        runtime::ShardedAggregator aggregator(cfgs, 1);
        double record_seconds = 0.0;
        double flush_seconds = 0.0;
        std::uint64_t flushes = 0;
        std::size_t next = 0;
        const int span = tracer.begin("runtime.record_replay");
        for (std::size_t r = 0; r < requests; ++r) {
            const Clock::time_point start = Clock::now();
            for (; next < ends[r]; ++next) {
                const EventRecorder::Event &event = recorder.events[next];
                if (event.isPath)
                    aggregator.recordPath(0, event.method, event.number);
                else
                    aggregator.recordEdge(0, event.method, event.edge);
            }
            record_seconds += secondsSince(start);
            if ((r + 1) % 64 == 0 || r + 1 == requests) {
                const int flush_span = tracer.begin("runtime.flush", span);
                const Clock::time_point flush_start = Clock::now();
                aggregator.flush(0);
                flush_seconds += secondsSince(flush_start);
                tracer.end(flush_span);
                ++flushes;
            }
        }
        tracer.end(span);
        std::uint64_t aggregated = aggregator.globalEdges().totalCount();
        for (const auto &[key, count] : aggregator.globalPaths())
            aggregated += count;
        report.check(aggregated == recorder.events.size(),
                     "serve: replayed records were not all aggregated");
        report.metric("runtime.record_ns",
                      recorder.events.empty()
                          ? 0.0
                          : record_seconds /
                                static_cast<double>(recorder.events.size()) *
                                1e9,
                      "ns");
        report.metric("runtime.flush_us",
                      flush_seconds / static_cast<double>(flushes) * 1e6,
                      "us");
    }

    Options options_;
    runtime::RequestStreamSpec spec_;
    vm::SimParams base_;
    std::vector<Config> configs_;
    std::unique_ptr<runtime::RequestStream> stream_;

    /** The latency loop's requests, and per configuration a machine
     *  and the interpreter that serves them on it. */
    std::vector<runtime::Request> served_;
    std::vector<std::unique_ptr<Rig>> rigs_;
    std::vector<std::unique_ptr<vm::Interpreter>> interps_;
    std::vector<std::uint64_t> firstCycles_;
    double generateSeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Options &options)
{
    return std::make_unique<Serve>(options);
}

} // namespace perfbench
