/**
 * @file
 * SkewMonitor unit tests: exact per-round dispersion on hand-computed
 * rounds, whole-run totals across rounds, and the shard-count check.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "service/skew_monitor.hh"

namespace dewrite {
namespace {

TEST(SkewMonitor, StartsEmpty)
{
    const SkewMonitor monitor(3);
    EXPECT_EQ(monitor.rounds(), 0u);
    const SkewMonitor::Stats total = monitor.totalStats();
    EXPECT_EQ(total.min, 0u);
    EXPECT_EQ(total.max, 0u);
    EXPECT_EQ(total.mean, 0.0);
    EXPECT_EQ(total.cv, 0.0); // Mean 0: cv is defined as 0.
}

TEST(SkewMonitor, EvenRoundHasZeroCv)
{
    SkewMonitor monitor(4);
    const std::array<std::uint64_t, 4> round = { 4, 4, 4, 4 };
    monitor.noteRound(round);
    const SkewMonitor::Stats &stats = monitor.lastRound();
    EXPECT_EQ(stats.min, 4u);
    EXPECT_EQ(stats.max, 4u);
    EXPECT_EQ(stats.mean, 4.0);
    EXPECT_EQ(stats.cv, 0.0);
}

TEST(SkewMonitor, OneHotShardHasCvRootThree)
{
    // Mean 2; deviations -2, -2, -2, 6 give variance (12 + 36) / 4 =
    // 12, so stddev 2 * sqrt(3) and cv sqrt(3).
    SkewMonitor monitor(4);
    const std::array<std::uint64_t, 4> round = { 0, 0, 0, 8 };
    monitor.noteRound(round);
    const SkewMonitor::Stats &stats = monitor.lastRound();
    EXPECT_EQ(stats.min, 0u);
    EXPECT_EQ(stats.max, 8u);
    EXPECT_EQ(stats.mean, 2.0);
    EXPECT_DOUBLE_EQ(stats.cv, std::sqrt(3.0));
}

TEST(SkewMonitor, TotalsAccumulateAcrossRounds)
{
    SkewMonitor monitor(4);
    const std::array<std::uint64_t, 4> first = { 0, 0, 0, 8 };
    const std::array<std::uint64_t, 4> second = { 8, 8, 8, 0 };
    monitor.noteRound(first);
    monitor.noteRound(second);
    EXPECT_EQ(monitor.rounds(), 2u);

    // The last round alone: mean 6, variance (3 * 4 + 36) / 4 = 12.
    EXPECT_EQ(monitor.lastRound().mean, 6.0);
    EXPECT_DOUBLE_EQ(monitor.lastRound().cv, std::sqrt(12.0) / 6.0);

    // Per-shard totals are 8 each: the two skewed rounds cancel.
    const SkewMonitor::Stats total = monitor.totalStats();
    EXPECT_EQ(total.min, 8u);
    EXPECT_EQ(total.max, 8u);
    EXPECT_EQ(total.mean, 8.0);
    EXPECT_EQ(total.cv, 0.0);
}

TEST(SkewMonitorDeathTest, ShardCountMismatchNamesBothCounts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SkewMonitor monitor(4);
    const std::array<std::uint64_t, 3> round = { 1, 2, 3 };
    EXPECT_DEATH(monitor.noteRound(round),
                 "skew round over 3 shards, monitor has 4");
}

} // namespace
} // namespace dewrite
