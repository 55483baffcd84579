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
