/**
 * @file
 * Statistics primitives tests.
 */

#include "common/stats.hh"

#include <gtest/gtest.h>

namespace dewrite {
namespace {

TEST(CounterTest, IncrementAndReset)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.increment();
    counter.increment(5);
    EXPECT_EQ(counter.value(), 6u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(AccumulatorTest, EmptyIsAllZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 0.0);
}

TEST(AccumulatorTest, TracksMoments)
{
    Accumulator acc;
    acc.add(2.0);
    acc.add(4.0);
    acc.add(9.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(AccumulatorTest, SingleNegativeSample)
{
    Accumulator acc;
    acc.add(-3.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
    EXPECT_DOUBLE_EQ(acc.max(), -3.0);
}

TEST(AccumulatorTest, AllNegativeSamplesKeepSignedMinMax)
{
    Accumulator acc;
    acc.add(-5.0);
    acc.add(-1.0);
    acc.add(-9.0);
    EXPECT_DOUBLE_EQ(acc.min(), -9.0);
    EXPECT_DOUBLE_EQ(acc.max(), -1.0);
    EXPECT_DOUBLE_EQ(acc.mean(), -5.0);
}

TEST(AccumulatorTest, ResetClearsAndNextSampleReseedsMinMax)
{
    Accumulator acc;
    acc.add(-7.0);
    acc.add(100.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.sum(), 0.0);
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 0.0);

    // Stale extremes must not leak into the fresh window.
    acc.add(5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(StatSetTest, SetGetHasAdd)
{
    StatSet stats;
    EXPECT_FALSE(stats.has("x"));
    EXPECT_EQ(stats.get("x"), 0.0);
    stats.set("x", 3.5);
    EXPECT_TRUE(stats.has("x"));
    EXPECT_DOUBLE_EQ(stats.get("x"), 3.5);
    stats.add("x", 1.5);
    EXPECT_DOUBLE_EQ(stats.get("x"), 5.0);
    stats.add("fresh", 2.0);
    EXPECT_DOUBLE_EQ(stats.get("fresh"), 2.0);
}

TEST(StatSetTest, MissingKeysReadZeroWithoutCreatingEntries)
{
    StatSet stats;
    stats.set("present", 1.0);
    EXPECT_EQ(stats.get("absent"), 0.0);
    EXPECT_FALSE(stats.has("absent"));
    // get() must not insert: the golden fingerprint hashes all().
    EXPECT_EQ(stats.all().size(), 1u);
    EXPECT_EQ(stats.get(""), 0.0);
    EXPECT_EQ(stats.all().size(), 1u);
}

} // namespace
} // namespace dewrite
