#ifndef PEP_CORE_SAMPLING_HH
#define PEP_CORE_SAMPLING_HH

/**
 * @file
 * Sampling controllers (paper Section 4.4). A controller is consulted
 * at every *sampling opportunity* — a loop-header or method-exit
 * yieldpoint, exactly the locations where BLPP would update the path
 * profile — and decides whether the yieldpoint handler runs and
 * whether it records a sample.
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

namespace pep::core {

/** What happens at one sampling opportunity. */
enum class SampleAction : std::uint8_t
{
    Idle,   ///< flag clear; only the (always present) flag check ran
    Stride, ///< handler ran but skipped the sample
    Sample, ///< handler ran and recorded a sample
};

/** Decides handler behaviour at sampling opportunities. */
class SamplingController
{
  public:
    virtual ~SamplingController() = default;

    /**
     * Called at each opportunity. `tick_pending` is true if a timer
     * tick fired since the previous opportunity.
     */
    virtual SampleAction onOpportunity(bool tick_pending) = 0;

    /** Reset to the dormant state (e.g., between iterations). */
    virtual void reset() = 0;

    /**
     * True when onOpportunity(false) would return Idle and change no
     * state — the controller waits for a tick. PEP then lets the
     * threaded engine skip the opportunities in between
     * (PathRegisterHooks::yieldpointsArmed). The default never claims
     * it, which is always correct.
     */
    virtual bool dormant() const { return false; }

    /** Configuration name for reports, e.g. "PEP(64,17)". */
    virtual std::string name() const = 0;
};

/** Instrumentation-only: never samples. */
class NeverSample final : public SamplingController
{
  public:
    SampleAction
    onOpportunity(bool) override
    {
        return SampleAction::Idle;
    }

    void reset() override {}

    bool dormant() const override { return true; }

    std::string name() const override { return "instr-only"; }
};

/** Simplified Arnold-Grove PEP(SAMPLES, STRIDE); PEP(1,1) is
 *  timer-based sampling. */
class SimplifiedArnoldGrove final : public SamplingController
{
  public:
    SimplifiedArnoldGrove(std::uint32_t samples, std::uint32_t stride);

    SampleAction onOpportunity(bool tick_pending) override;
    void reset() override;
    bool dormant() const override { return remaining_ == 0; }
    std::string name() const override;

  private:
    const std::uint32_t samples_;
    const std::uint32_t stride_;
    std::uint32_t toSkip_ = 0;
    std::uint32_t remaining_ = 0;
    std::uint32_t rotation_ = 1;
};

/** Original Arnold-Grove: stride before every sample. */
class FullArnoldGrove final : public SamplingController
{
  public:
    FullArnoldGrove(std::uint32_t samples, std::uint32_t stride);

    SampleAction onOpportunity(bool tick_pending) override;
    void reset() override;
    bool dormant() const override { return remaining_ == 0; }
    std::string name() const override;

  private:
    const std::uint32_t samples_;
    const std::uint32_t stride_;
    std::uint32_t toSkip_ = 0;
    std::uint32_t remaining_ = 0;
    std::uint32_t rotation_ = 1;
};

} // namespace pep::core

#endif // PEP_CORE_SAMPLING_HH
