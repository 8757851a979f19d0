#ifndef PEP_TESTING_SERVICE_ORACLE_HH
#define PEP_TESTING_SERVICE_ORACLE_HH

/**
 * @file
 * What the request service (runtime::runThroughput) must total,
 * computed without the service. Worker w runs stream shard w alone on a
 * seeded machine, so the same shard replayed on a fresh machine with the
 * same parameters, under a core::FullPathProfiler configured as the
 * service's recorder is (HeaderSplit, Ball-Larus, Direct placement, no
 * charges), completes the same paths. Summing the shards' path tables
 * by (method, number) and their path-derived edge profiles
 * (core::edgeProfileFromPaths) gives totals that pass through neither
 * the recorder nor any aggregator: a recorder that loses or
 * double-counts paths disagrees with them even though every
 * aggregation strategy agrees with every other.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "profile/edge_profile.hh"
#include "runtime/request_stream.hh"
#include "runtime/sharded_profile.hh"
#include "runtime/throughput.hh"
#include "vm/machine.hh"

namespace pep::testing {

/** The per-shard solo oracle's totals. */
struct ServiceTotals
{
    runtime::PathTotals paths;
    profile::EdgeProfileSet edges;
};

/** Replay each of `workers` stream shards alone under a full path
 *  profiler and sum what they completed. */
ServiceTotals soloServiceTotals(const runtime::RequestStream &stream,
                                std::uint32_t workers,
                                const vm::SimParams &params);

/**
 * Every way a drop-free service run departs from the oracle, one line
 * each; empty when they agree. Checks the path and edge totals, that
 * pathRecords equals the sum of the oracle's path counts, and that
 * edgeRecords equals its edge total.
 */
std::vector<std::string>
serviceTotalsMismatches(const runtime::ThroughputResult &result,
                        const ServiceTotals &oracle);

} // namespace pep::testing

#endif // PEP_TESTING_SERVICE_ORACLE_HH
