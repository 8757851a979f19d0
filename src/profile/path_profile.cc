#include "profile/path_profile.hh"

#include "profile/edge_profile.hh"

namespace pep::profile {

const PathRecord *
MethodPathProfile::find(std::uint64_t path_number) const
{
    const auto it = paths_.find(path_number);
    return it == paths_.end() ? nullptr : &it->second;
}

std::uint64_t
MethodPathProfile::totalCount() const
{
    std::uint64_t total = 0;
    for (const auto &[number, record] : paths_)
        total += record.count;
    return total;
}

void
MethodPathProfile::ensureExpanded(const PathReconstructor &reconstructor,
                                  const KPathScheme *kpath)
{
    for (auto &[number, record] : paths_) {
        if (!record.expanded)
            expandRecord(record, reconstructor, number, kpath);
    }
}

void
expandRecord(PathRecord &record, const PathReconstructor &reconstructor,
             std::uint64_t path_number, const KPathScheme *kpath)
{
    ReconstructedPath path =
        kpath != nullptr && path_number >= kpath->base()
            ? reconstructKPath(*kpath, reconstructor, path_number)
            : reconstructor.reconstruct(path_number);
    record.cfgEdges = std::move(path.cfgEdges);
    record.numBranches = path.numBranches;
    record.expanded = true;
}

void
accumulateEdgeProfile(MethodEdgeProfile &edge_profile,
                      MethodPathProfile &path_profile,
                      const PathReconstructor &reconstructor,
                      const KPathScheme *kpath)
{
    path_profile.ensureExpanded(reconstructor, kpath);
    for (const auto &[number, record] : path_profile.paths()) {
        for (const cfg::EdgeRef &edge : record.cfgEdges)
            edge_profile.addEdge(edge, record.count);
    }
}

} // namespace pep::profile
