#include "profile/path_profile.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "profile/edge_profile.hh"
#include "support/panic.hh"

namespace pep::profile {

const PathRecord *
MethodPathProfile::find(std::uint64_t path_number) const
{
    if (index_.empty())
        return nullptr;
    const std::uint32_t held = index_[probe(path_number)];
    return held == 0 ? nullptr : &records_[held - 1].second;
}

std::uint32_t
MethodPathProfile::append(std::uint64_t path_number)
{
    PEP_ASSERT(records_.size() < std::numeric_limits<std::uint32_t>::max());
    const auto position = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back(path_number, PathRecord{});
    if (2 * records_.size() <= index_.size()) {
        index_[probe(path_number)] = position + 1;
        return position;
    }
    // Past half full: double the index and place every record anew.
    constexpr std::size_t kMinSlots = 16;
    const std::size_t slots =
        index_.empty() ? kMinSlots : 2 * index_.size();
    index_.assign(slots, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::uint32_t p = 0; p < records_.size(); ++p)
        index_[probe(records_[p].first)] = p + 1;
    return position;
}

std::uint64_t
MethodPathProfile::totalCount() const
{
    std::uint64_t total = 0;
    for (const auto &[number, record] : records_)
        total += record.count;
    return total;
}

void
MethodPathProfile::ensureExpanded(const PathReconstructor &reconstructor,
                                  const KPathScheme *kpath)
{
    for (auto &[number, record] : records_) {
        if (!record.expanded)
            expandRecord(record, reconstructor, number, kpath);
    }
}

void
MethodPathProfile::clear()
{
    records_.clear();
    std::fill(index_.begin(), index_.end(), 0);
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
