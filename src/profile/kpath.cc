#include "profile/kpath.hh"

#include "support/panic.hh"

namespace pep::profile {

std::uint32_t
kEffectiveFor(std::uint64_t base, std::uint32_t k_requested)
{
    if (k_requested == 0)
        k_requested = 1;
    // base <= 1: the id space grows linearly with length and can never
    // overflow, so the full requested k is always effective.
    if (base <= 1 || k_requested == 1)
        return k_requested;
    std::uint32_t k_eff = 1;
    std::uint64_t power = base;  // base^k_eff
    std::uint64_t total = base;  // offset(k_eff + 1)
    while (k_eff < k_requested) {
        if (power > kKPathIdCap / base)
            break;
        power *= base;
        if (total > kKPathIdCap - power)
            break;
        total += power;
        ++k_eff;
    }
    return k_eff;
}

KPathScheme::KPathScheme(std::uint64_t base, std::uint32_t k_requested)
    : base_(base),
      kRequested_(k_requested == 0 ? 1 : k_requested),
      kEffective_(kEffectiveFor(base, kRequested_))
{
    offsets_.assign(kEffective_ + 1, 0);
    std::uint64_t power = 1;
    for (std::uint32_t length = 1; length <= kEffective_; ++length) {
        // base^length fits by construction of kEffectiveFor; base 0
        // (disabled plan) degenerates to an all-zero table.
        power *= base_;
        offsets_[length] = offsets_[length - 1] + power;
    }
}

std::uint64_t
KPathScheme::encode(const std::uint64_t *digits, std::size_t length) const
{
    PEP_ASSERT_MSG(length >= 1 && length <= kEffective_,
                   "k-path window length " << length
                       << " outside [1, " << kEffective_ << "]");
    std::uint64_t id = offsets_[length - 1];
    std::uint64_t power = 1;
    for (std::size_t j = 0; j < length; ++j) {
        PEP_ASSERT_MSG(digits[j] < base_,
                       "k-path digit " << digits[j]
                           << " >= base " << base_);
        id += digits[j] * power;
        power *= base_;
    }
    return id;
}

bool
KPathScheme::append(KPathWindow &window, std::uint64_t number) const
{
    PEP_ASSERT_MSG(window.length < kEffective_,
                   "k-path window already holds " << window.length
                                                  << " segments");
    PEP_ASSERT_MSG(number < base_,
                   "k-path digit " << number << " >= base " << base_);
    // base^length stays under kKPathIdCap for every length up to
    // kEffective (kEffectiveFor), so neither product overflows.
    window.digits += number * window.scale;
    window.scale *= base_;
    return ++window.length == kEffective_;
}

std::uint64_t
KPathScheme::close(KPathWindow &window) const
{
    PEP_ASSERT_MSG(window.length >= 1, "closing an empty k-path window");
    const std::uint64_t id = offsets_[window.length - 1] + window.digits;
    window = KPathWindow{};
    return id;
}

std::vector<std::uint64_t>
KPathScheme::decode(std::uint64_t id) const
{
    const std::uint32_t length = lengthOf(id);
    std::vector<std::uint64_t> digits(length);
    std::uint64_t rem = id - offsets_[length - 1];
    for (std::uint32_t j = 0; j < length; ++j) {
        digits[j] = base_ > 1 ? rem % base_ : 0;
        rem = base_ > 1 ? rem / base_ : 0;
    }
    return digits;
}

std::uint32_t
KPathScheme::lengthOf(std::uint64_t id) const
{
    PEP_ASSERT_MSG(id < maxId(),
                   "k-path id " << id << " >= maxId " << maxId());
    std::uint32_t length = 1;
    while (id >= offsets_[length])
        ++length;
    return length;
}

ReconstructedPath
reconstructKPath(const KPathScheme &scheme,
                 const PathReconstructor &reconstructor, std::uint64_t id)
{
    if (id < scheme.base())
        return reconstructor.reconstruct(id);
    const std::vector<std::uint64_t> digits = scheme.decode(id);
    ReconstructedPath joined;
    for (std::size_t j = 0; j < digits.size(); ++j) {
        ReconstructedPath segment = reconstructor.reconstruct(digits[j]);
        if (j == 0)
            joined.startHeader = segment.startHeader;
        if (j + 1 == digits.size())
            joined.endHeader = segment.endHeader;
        joined.numBranches += segment.numBranches;
        joined.dagEdges.insert(joined.dagEdges.end(),
                               segment.dagEdges.begin(),
                               segment.dagEdges.end());
        joined.cfgEdges.insert(joined.cfgEdges.end(),
                               segment.cfgEdges.begin(),
                               segment.cfgEdges.end());
    }
    return joined;
}

} // namespace pep::profile
