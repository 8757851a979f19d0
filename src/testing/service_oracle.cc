#include "testing/service_oracle.hh"

#include <sstream>

#include "core/baseline_profilers.hh"
#include "vm/interpreter.hh"

namespace pep::testing {

ServiceTotals
soloServiceTotals(const runtime::RequestStream &stream,
                  std::uint32_t workers, const vm::SimParams &params)
{
    ServiceTotals totals;
    for (std::uint32_t w = 0; w < workers; ++w) {
        vm::Machine machine(stream.program(), params);
        core::FullPathProfiler full(machine, profile::DagMode::HeaderSplit,
                                    /*charge_costs=*/false,
                                    profile::NumberingScheme::BallLarus,
                                    core::PathStoreKind::Hash,
                                    profile::PlacementKind::Direct);
        machine.addHooks(&full);
        machine.addCompileObserver(&full);
        vm::Interpreter interp(machine, 0);
        for (const runtime::Request &request : stream.shard(w, workers)) {
            interp.start(stream.handlerMethod(request.handler),
                         {request.arg});
            while (!interp.resume()) {
            }
        }

        for (const auto &[key, vp] : full.versionProfiles()) {
            for (const auto &[number, record] : vp->paths.paths())
                totals.paths[runtime::PathKey{key.first, number}] +=
                    record.count;
        }
        const profile::EdgeProfileSet edges =
            core::edgeProfileFromPaths(machine, full);
        if (totals.edges.perMethod.empty())
            totals.edges = edges;
        else
            totals.edges.merge(edges);
    }
    return totals;
}

std::vector<std::string>
serviceTotalsMismatches(const runtime::ThroughputResult &result,
                        const ServiceTotals &oracle)
{
    std::vector<std::string> mismatches;
    auto mismatch = [&](const std::string &what, std::uint64_t got,
                        std::uint64_t want) {
        std::ostringstream os;
        os << what << ": service " << got << ", solo oracle " << want;
        mismatches.push_back(os.str());
    };

    std::uint64_t oracle_paths = 0;
    for (const auto &[key, count] : oracle.paths)
        oracle_paths += count;
    if (result.paths != oracle.paths) {
        std::uint64_t service_paths = 0;
        for (const auto &[key, count] : result.paths)
            service_paths += count;
        mismatch("path totals differ; paths counted", service_paths,
                 oracle_paths);
    }
    if (result.pathRecords != oracle_paths)
        mismatch("pathRecords", result.pathRecords, oracle_paths);

    const std::uint64_t oracle_edges = oracle.edges.totalCount();
    if (result.edges != oracle.edges) {
        mismatch("edge totals differ; edges counted",
                 result.edges.totalCount(), oracle_edges);
    }
    if (result.edgeRecords != oracle_edges)
        mismatch("edgeRecords", result.edgeRecords, oracle_edges);
    return mismatches;
}

} // namespace pep::testing
