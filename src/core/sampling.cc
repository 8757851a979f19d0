#include "core/sampling.hh"

#include <sstream>

#include "support/panic.hh"

namespace pep::core {

SimplifiedArnoldGrove::SimplifiedArnoldGrove(std::uint32_t samples,
                                             std::uint32_t stride)
    : samples_(samples), stride_(stride)
{
    PEP_ASSERT(samples >= 1 && stride >= 1);
}

vm::SampleBurst
SimplifiedArnoldGrove::tick()
{
    // The rotating initial stride, then a burst of SAMPLES samples.
    const vm::SampleBurst burst{rotation_ - 1, samples_};
    rotation_ = rotation_ % stride_ + 1;
    return burst;
}

std::string
SimplifiedArnoldGrove::name() const
{
    std::ostringstream os;
    os << "PEP(" << samples_ << "," << stride_ << ")";
    return os.str();
}

FullArnoldGrove::FullArnoldGrove(std::uint32_t samples,
                                 std::uint32_t stride)
    : samples_(samples), stride_(stride)
{
    PEP_ASSERT(samples >= 1 && stride >= 1);
}

vm::SampleBurst
FullArnoldGrove::tick()
{
    const vm::SampleBurst burst{rotation_ - 1, 1};
    rotation_ = rotation_ % stride_ + 1;
    owed_ = samples_ - 1;
    return burst;
}

vm::SampleBurst
FullArnoldGrove::next()
{
    if (owed_ == 0)
        return {};
    --owed_;
    return {stride_ - 1, 1}; // stride before the next sample too
}

std::string
FullArnoldGrove::name() const
{
    std::ostringstream os;
    os << "AG(" << samples_ << "," << stride_ << ")";
    return os.str();
}

} // namespace pep::core
