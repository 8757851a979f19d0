/**
 * @file
 * Sampling-controller tests, pinning the exact behaviours of paper
 * Figure 5: timer-based sampling (one sample per tick), simplified
 * Arnold-Grove (rotating initial stride, then a burst of consecutive
 * samples), and original Arnold-Grove (stride between every sample).
 * Every sequence is driven through PEP's sampling countdown
 * (vm::PathRegisterHooks::sampleOpportunity), the one place the
 * controllers' bursts are spent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>

#include "common/fixtures.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"

namespace pep::core {
namespace {

/**
 * A PEP profiler on an idle machine, fed yieldpoints through
 * PepProfiler::onYieldpoint — the entry the switch engine calls at
 * every yieldpoint, which runs the countdown step the threaded engine
 * runs inline. Each opportunity's action is read off PepStats and
 * encoded as a char: '.' idle, 's' stride, 'X' sample.
 */
class Countdown
{
  public:
    explicit Countdown(SamplingController &controller)
        : machine_(test::figure1Program(), vm::SimParams{}),
          pep_(machine_, controller)
    {
    }

    /** One yieldpoint of `kind`; `tick` says whether a tick fired. */
    char
    step(bool tick,
         vm::YieldpointKind kind = vm::YieldpointKind::LoopHeader)
    {
        const PepStats before = pep_.pepStats();
        pep_.onYieldpoint(vm::FrameView{}, kind, tick);
        const PepStats &after = pep_.pepStats();
        if (after.samplesTaken != before.samplesTaken)
            return 'X';
        return after.strides != before.strides ? 's' : '.';
    }

    /** `opportunities` steps; index 0 carries a tick, and so does
     *  every multiple of `tick_every` when it is nonzero. */
    std::string
    drive(std::size_t opportunities, std::size_t tick_every = 0)
    {
        std::string actions;
        for (std::size_t i = 0; i < opportunities; ++i) {
            actions.push_back(
                step(i == 0 || (tick_every != 0 && i % tick_every == 0)));
        }
        return actions;
    }

    /** Like drive(), but ticks fire at exactly the listed opportunity
     *  indices — for golden sequences with a tick landing mid-burst. */
    std::string
    driveTicksAt(std::size_t opportunities,
                 std::initializer_list<std::size_t> ticks)
    {
        std::string actions;
        for (std::size_t i = 0; i < opportunities; ++i) {
            actions.push_back(
                step(std::find(ticks.begin(), ticks.end(), i) !=
                     ticks.end()));
        }
        return actions;
    }

  private:
    vm::Machine machine_;
    PepProfiler pep_;
};

TEST(NeverSampleTest, AlwaysIdle)
{
    NeverSample controller;
    EXPECT_EQ(Countdown(controller).drive(10), "..........");
    EXPECT_EQ(controller.name(), "instr-only");
}

TEST(SimplifiedAg, TimerConfigTakesOneSamplePerTick)
{
    // PEP(1,1): exactly one sample at the first opportunity after a
    // tick, idle otherwise.
    SimplifiedArnoldGrove controller(1, 1);
    EXPECT_EQ(controller.name(), "PEP(1,1)");
    EXPECT_EQ(Countdown(controller).drive(12, 6), "X.....X.....");
}

TEST(SimplifiedAg, BurstOfConsecutiveSamples)
{
    // PEP(4,1): no striding, four consecutive samples per tick.
    SimplifiedArnoldGrove controller(4, 1);
    EXPECT_EQ(Countdown(controller).drive(12, 0), "XXXX........");
}

TEST(SimplifiedAg, StrideRotatesAcrossTicks)
{
    // PEP(4,3): Figure 5(c). First tick: rotation 1 -> no skip, then
    // 4 consecutive samples. Second tick: rotation 2 -> one stride.
    // Third tick: rotation 3 -> two strides. Fourth: back to 1.
    SimplifiedArnoldGrove controller(4, 3);
    Countdown countdown(controller);
    EXPECT_EQ(countdown.drive(8, 0), "XXXX....");   // tick @0, rot 1
    EXPECT_EQ(countdown.drive(8, 0), "sXXXX...");   // rot 2
    EXPECT_EQ(countdown.drive(8, 0), "ssXXXX..");   // rot 3
    EXPECT_EQ(countdown.drive(8, 0), "XXXX....");   // rot 1 again
}

TEST(SimplifiedAg, NoStridingAfterFirstSample)
{
    // The simplification: once the first sample of a tick is taken,
    // every subsequent opportunity samples until the burst ends.
    SimplifiedArnoldGrove controller(3, 5);
    const std::string actions = Countdown(controller).drive(12, 0);
    const auto first_sample = actions.find('X');
    ASSERT_NE(first_sample, std::string::npos);
    EXPECT_EQ(actions.substr(first_sample, 3), "XXX");
}

TEST(SimplifiedAg, TickDuringBurstRestartsIt)
{
    SimplifiedArnoldGrove controller(4, 1);
    Countdown countdown(controller);
    EXPECT_EQ(countdown.step(true), 'X');
    EXPECT_EQ(countdown.step(false), 'X');
    // New tick mid-burst: burst restarts with a full sample budget
    // (one sample consumed by the restarting opportunity itself).
    EXPECT_EQ(countdown.step(true), 'X');
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(countdown.step(false), 'X');
    EXPECT_EQ(countdown.step(false), '.');
}

TEST(SimplifiedAg, TickAtMethodEntryWaitsForTheNextOpportunity)
{
    // A method-entry yieldpoint is no sampling opportunity: its tick
    // arms the burst at the thread's next loop header or method exit.
    SimplifiedArnoldGrove controller(2, 1);
    Countdown countdown(controller);
    for (const vm::YieldpointKind kind :
         {vm::YieldpointKind::LoopHeader, vm::YieldpointKind::MethodExit}) {
        EXPECT_EQ(countdown.step(true, vm::YieldpointKind::MethodEntry),
                  '.');
        EXPECT_EQ(countdown.step(false, vm::YieldpointKind::MethodEntry),
                  '.');
        EXPECT_EQ(countdown.step(false, kind), 'X');
        EXPECT_EQ(countdown.step(false), 'X');
        EXPECT_EQ(countdown.step(false), '.');
    }
}

TEST(FullAg, StridesBetweenEverySample)
{
    // AG(4,3): Figure 5(b). Rotation 1: sample immediately, then two
    // strides before each subsequent sample.
    FullArnoldGrove controller(4, 3);
    EXPECT_EQ(controller.name(), "AG(4,3)");
    EXPECT_EQ(Countdown(controller).drive(12, 0), "XssXssXssX..");
}

TEST(FullAg, RotationShiftsFirstSample)
{
    FullArnoldGrove controller(2, 3);
    Countdown countdown(controller);
    EXPECT_EQ(countdown.drive(6, 0), "XssX.."); // rotation 1
    EXPECT_EQ(countdown.drive(6, 0), "sXssX."); // rotation 2
    EXPECT_EQ(countdown.drive(7, 0), "ssXssX."); // rotation 3
}

TEST(FullAg, SameSampleCountAsSimplified)
{
    SimplifiedArnoldGrove simplified(8, 5);
    FullArnoldGrove full(8, 5);
    const std::string a = Countdown(simplified).drive(64, 0);
    const std::string b = Countdown(full).drive(64, 0);
    EXPECT_EQ(std::count(a.begin(), a.end(), 'X'), 8);
    EXPECT_EQ(std::count(b.begin(), b.end(), 'X'), 8);
    // ...but full AG runs the handler more often (more strides).
    EXPECT_GT(std::count(b.begin(), b.end(), 's'),
              std::count(a.begin(), a.end(), 's'));
}

TEST(SimplifiedAg, GoldenSequenceAcrossTicks)
{
    // PEP(3,4) with ticks at opportunities 0 and 5.  Tick 0 uses
    // rotation 1 (no initial stride): three consecutive samples, then
    // idle.  Tick at 5 uses rotation 2: one stride, then the burst.
    SimplifiedArnoldGrove controller(3, 4);
    EXPECT_EQ(Countdown(controller).driveTicksAt(16, {0, 5}),
              "XXX..sXXX.......");
}

TEST(SimplifiedAg, GoldenSequenceTickMidBurst)
{
    // A tick landing mid-burst (opportunity 2, after two of three
    // samples) restarts the controller: the new rotation (2) inserts
    // one stride, then a fresh full burst of three samples runs.
    SimplifiedArnoldGrove controller(3, 4);
    EXPECT_EQ(Countdown(controller).driveTicksAt(7, {0, 2}), "XXsXXX.");
}

TEST(FullAg, GoldenSequenceTickMidBurst)
{
    // AG(3,4), ticks at 0 and 2.  Unlike the simplified controller,
    // full Arnold-Grove strides between every sample, so the tick at
    // opportunity 2 lands mid-stride; the restart replaces the
    // in-progress stride count with the new rotation's (one stride),
    // then each subsequent sample is separated by three strides.
    FullArnoldGrove controller(3, 4);
    EXPECT_EQ(Countdown(controller).driveTicksAt(16, {0, 2}),
              "XssXsssXsssX....");
}

TEST(Controllers, SampleCountsAgreeWhenBurstsComplete)
{
    // Cross-check between the samplers: with ticks spaced widely
    // enough for every burst to complete, both controllers take
    // exactly samples-per-tick samples per tick — the simplification
    // changes *when* samples land, never *how many* per completed
    // burst.  (A mid-burst tick legitimately differs: the full
    // controller strides inside the burst, so fewer samples land
    // before the restart — pinned by the golden tests above.)
    SimplifiedArnoldGrove simplified(5, 3);
    FullArnoldGrove full(5, 3);
    const auto ticks = {std::size_t{0}, std::size_t{40}};
    const std::string a = Countdown(simplified).driveTicksAt(80, ticks);
    const std::string b = Countdown(full).driveTicksAt(80, ticks);
    EXPECT_EQ(std::count(a.begin(), a.end(), 'X'), 10);
    EXPECT_EQ(std::count(b.begin(), b.end(), 'X'), 10);
    // Second tick uses rotation 2 in both: one initial stride.
    EXPECT_EQ(a.substr(40, 8), "sXXXXX..");
    EXPECT_EQ(b.substr(40, 13), "sXssXssXssXss");
}

TEST(Controllers, SamplesPerTickIsExactlyConfigured)
{
    for (const std::uint32_t samples : {1u, 16u, 64u}) {
        SimplifiedArnoldGrove controller(samples, 17);
        // One tick, then plenty of opportunities.
        const std::string actions = Countdown(controller).drive(200, 0);
        EXPECT_EQ(std::count(actions.begin(), actions.end(), 'X'),
                  static_cast<std::ptrdiff_t>(samples));
    }
}

} // namespace
} // namespace pep::core
