/**
 * @file
 * Unit tests for the sliding-window counters: bucketed expiry,
 * late/backwards events, the covered-span rate denominator, the
 * bucket-aligned shard merge, and the checkpoint round-trip.
 */

#include <gtest/gtest.h>

#include "obs/timeseries.hh"

namespace aiecc
{
namespace
{

TEST(SlidingWindow, StartsEmpty)
{
    obs::SlidingWindow w(100);
    EXPECT_EQ(w.windowTotal(), 0u);
    EXPECT_EQ(w.lifetimeTotal(), 0u);
    EXPECT_EQ(w.coveredCycles(), 0u);
    EXPECT_EQ(w.ratePerKilocycle(), 0.0);
    EXPECT_EQ(w.bucketCycles(), 100u);
    EXPECT_EQ(w.windowCycles(),
              100u * obs::SlidingWindow::numBuckets);
}

TEST(SlidingWindow, CountsInsideWindow)
{
    obs::SlidingWindow w(100);
    w.record(10);
    w.record(110, 3);
    w.record(250);
    EXPECT_EQ(w.windowTotal(), 5u);
    EXPECT_EQ(w.lifetimeTotal(), 5u);
}

TEST(SlidingWindow, OldEventsExpireAsTimeAdvances)
{
    obs::SlidingWindow w(100);
    w.record(10);
    // One full window later the first event's bucket has been expired.
    w.record(10 + w.windowCycles() + 100);
    EXPECT_EQ(w.windowTotal(), 1u);
    EXPECT_EQ(w.lifetimeTotal(), 2u);
}

TEST(SlidingWindow, AdvanceToExpiresWithoutCounting)
{
    obs::SlidingWindow w(100);
    w.record(10);
    EXPECT_EQ(w.windowTotal(), 1u);
    w.advanceTo(10 + 2 * w.windowCycles());
    EXPECT_EQ(w.windowTotal(), 0u);
    EXPECT_EQ(w.lifetimeTotal(), 1u);
}

// A shard replaying events behind the merged head must not corrupt
// the buckets: an event older than the current window counts in the
// lifetime total only.
TEST(SlidingWindow, BackwardsEventCountsLifetimeOnly)
{
    obs::SlidingWindow w(100);
    w.record(10 * w.windowCycles());
    const uint64_t inWindow = w.windowTotal();
    w.record(0);
    EXPECT_EQ(w.windowTotal(), inWindow);
    EXPECT_EQ(w.lifetimeTotal(), 2u);
}

TEST(SlidingWindow, RateUsesCoveredSpanWhileRampingUp)
{
    obs::SlidingWindow w(1000);
    w.record(0);
    w.record(999);
    // Only one bucket covered so far: rate = 2 events / 1000 cycles.
    EXPECT_EQ(w.coveredCycles(), 1000u);
    EXPECT_DOUBLE_EQ(w.ratePerKilocycle(), 2.0);
    w.record(3500);
    EXPECT_EQ(w.coveredCycles(), 4000u);
    EXPECT_DOUBLE_EQ(w.ratePerKilocycle(), 3.0 / 4.0);
}

TEST(SlidingWindow, MergeMatchesSingleStream)
{
    // Interleave one event stream into two shard-local windows; the
    // bucket-aligned merge must equal the single-stream result bit
    // for bit (the serialized state is the full state).
    obs::SlidingWindow all(100), a(100), b(100);
    for (uint64_t i = 0; i < 200; ++i) {
        const uint64_t cycle = i * 37;
        all.record(cycle);
        (i % 2 ? a : b).record(cycle);
    }
    a.merge(b);
    EXPECT_EQ(state::save(a), state::save(all));
    EXPECT_EQ(a.windowTotal(), all.windowTotal());
    EXPECT_EQ(a.lifetimeTotal(), 200u);
}

TEST(SlidingWindow, MergeIsOrderIndependent)
{
    obs::SlidingWindow a1(64), b1(64), a2(64), b2(64);
    for (uint64_t i = 0; i < 50; ++i) {
        a1.record(i * 100);
        a2.record(i * 100);
    }
    for (uint64_t i = 0; i < 80; ++i) {
        b1.record(i * 63);
        b2.record(i * 63);
    }
    a1.merge(b1); // a then b
    b2.merge(a2); // b then a
    EXPECT_EQ(state::save(a1), state::save(b2));
}

TEST(SlidingWindow, SerializeRoundTripIsExact)
{
    obs::SlidingWindow w(1 << 14);
    for (uint64_t i = 0; i < 300; ++i)
        w.record(i * 1777, 1 + i % 3);
    obs::SlidingWindow restored(1 << 14);
    ASSERT_TRUE(state::load(restored, state::save(w)).ok);
    EXPECT_EQ(state::save(restored), state::save(w));
    EXPECT_EQ(restored.windowTotal(), w.windowTotal());
    EXPECT_EQ(restored.lifetimeTotal(), w.lifetimeTotal());
    EXPECT_EQ(restored.coveredCycles(), w.coveredCycles());
    // The restored window keeps evolving identically.
    w.record(300 * 1777);
    restored.record(300 * 1777);
    EXPECT_EQ(state::save(restored), state::save(w));
}

TEST(SlidingWindow, ResetClearsEverything)
{
    obs::SlidingWindow w(100);
    w.record(5000, 7);
    w.reset();
    EXPECT_EQ(w.windowTotal(), 0u);
    EXPECT_EQ(w.lifetimeTotal(), 0u);
    EXPECT_EQ(w.coveredCycles(), 0u);
    obs::SlidingWindow fresh(100);
    EXPECT_EQ(state::save(w), state::save(fresh));
}

} // namespace
} // namespace aiecc
