#ifndef PEP_CORE_SAMPLING_HH
#define PEP_CORE_SAMPLING_HH

/**
 * @file
 * Sampling controllers (paper Section 4.4). A *sampling opportunity*
 * is a loop-header or method-exit yieldpoint — exactly the locations
 * where BLPP would update the path profile. What the handler does at
 * each one is decided by a countdown the path register owns
 * (vm::PathRegisterHooks::sampleOpportunity): stride over some
 * opportunities, then sample some. A controller is the source of
 * those bursts: the profiler asks it when a timer tick reaches an
 * opportunity, when a burst runs out, and once when it is built.
 *
 *  - TimerSampling == PEP(1,1): one sample at the first opportunity
 *    after each timer tick.
 *  - SimplifiedArnoldGrove == PEP(SAMPLES, STRIDE): after a tick,
 *    stride over s-1 opportunities (s rotates through [1, STRIDE]),
 *    then take SAMPLES consecutive samples. The paper's modification:
 *    striding only before the first sample of a tick.
 *  - FullArnoldGrove: the original scheme — stride between *every*
 *    sample (used for the simplified-vs-full ablation).
 *  - NeverSample: instrumentation-only configuration (Figure 6's
 *    "PEP instrumentation" bar).
 */

#include <cstdint>
#include <string>

#include "vm/hooks.hh"

namespace pep::core {

/** Hands out the bursts of sampling opportunities a profiler runs. */
class SamplingController
{
  public:
    virtual ~SamplingController() = default;

    /** A timer tick reached a sampling opportunity: the burst that
     *  replaces the one in progress, starting at that opportunity. */
    virtual vm::SampleBurst tick() = 0;

    /** No burst is left — the last one took its last sample, or the
     *  profiler was just built: the next burst, or an empty one to
     *  wait for the next tick. */
    virtual vm::SampleBurst next() { return {}; }

    /** Configuration name for reports, e.g. "PEP(64,17)". */
    virtual std::string name() const = 0;
};

/** Instrumentation-only: never samples. */
class NeverSample final : public SamplingController
{
  public:
    vm::SampleBurst tick() override { return {}; }
    std::string name() const override { return "instr-only"; }
};

/** Simplified Arnold-Grove PEP(SAMPLES, STRIDE); PEP(1,1) is
 *  timer-based sampling. Each tick's burst: a rotating stride, then
 *  SAMPLES samples. */
class SimplifiedArnoldGrove final : public SamplingController
{
  public:
    SimplifiedArnoldGrove(std::uint32_t samples, std::uint32_t stride);

    vm::SampleBurst tick() override;
    std::string name() const override;

  private:
    const std::uint32_t samples_;
    const std::uint32_t stride_;
    std::uint32_t rotation_ = 1;
};

/** Original Arnold-Grove: stride before every sample. A tick's
 *  SAMPLES samples come as that many bursts of one sample each, the
 *  first after the rotating stride, the rest after STRIDE-1. */
class FullArnoldGrove final : public SamplingController
{
  public:
    FullArnoldGrove(std::uint32_t samples, std::uint32_t stride);

    vm::SampleBurst tick() override;
    vm::SampleBurst next() override;
    std::string name() const override;

  private:
    const std::uint32_t samples_;
    const std::uint32_t stride_;
    std::uint32_t rotation_ = 1;

    /** One-sample bursts still owed to the current tick. */
    std::uint32_t owed_ = 0;
};

} // namespace pep::core

#endif // PEP_CORE_SAMPLING_HH
