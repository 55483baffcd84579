/**
 * @file
 * MetricRegistry tests: registration, scopes, snapshots, the legacy
 * StatSet view, and wiring-bug panics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/stats.hh"
#include "obs/metric_registry.hh"

namespace dewrite::obs {
namespace {

TEST(MetricRegistryTest, ReadsEachKind)
{
    Counter counter;
    counter.increment(7);

    MetricRegistry registry;
    registry.addCounter("a.counter", counter, "events");
    registry.addGauge("a.gauge", [] { return 0.25; }, "ratio");

    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.find("a.counter")->read(), 7.0);
    EXPECT_EQ(registry.find("a.gauge")->read(), 0.25);
}

TEST(MetricRegistryTest, ReadsAreLiveNotCopies)
{
    Counter counter;
    MetricRegistry registry;
    registry.addCounter("c", counter, "events");
    EXPECT_EQ(registry.find("c")->read(), 0.0);
    counter.increment(3);
    EXPECT_EQ(registry.find("c")->read(), 3.0);
}

TEST(MetricRegistryTest, ScopesPrefixAndNest)
{
    Counter counter;
    MetricRegistry registry;
    MetricRegistry::Scope cache = registry.scope("cache");
    cache.scope("metadata").counter("fill_reads", counter, "fills");
    EXPECT_TRUE(registry.has("cache.metadata.fill_reads"));
    EXPECT_FALSE(registry.has("fill_reads"));
}

TEST(MetricRegistryTest, SnapshotIsPathSorted)
{
    Counter c1, c2;
    MetricRegistry registry;
    registry.addCounter("z.last", c1, "");
    registry.addCounter("a.first", c2, "");
    registry.addGauge("m.middle", [] { return 1.0; }, "");

    const std::vector<MetricSample> snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                               [](const auto &a, const auto &b) {
                                   return a.path < b.path;
                               }));
    EXPECT_EQ(snap.front().path, "a.first");
    EXPECT_EQ(snap.back().path, "z.last");
}

TEST(MetricRegistryTest, FillStatSetExportsOnlyLegacyEntries)
{
    Counter with_legacy, without;
    with_legacy.increment(5);
    MetricRegistry registry;
    registry.addCounter("controller.dedup.duplicate_commits",
                        with_legacy, "", "duplicate_commits");
    registry.addCounter("controller.dedup.counter_wraps", without, "");

    StatSet stats;
    registry.fillStatSet(stats);
    EXPECT_TRUE(stats.has("duplicate_commits"));
    EXPECT_EQ(stats.get("duplicate_commits"), 5.0);
    EXPECT_FALSE(stats.has("counter_wraps"));
    EXPECT_EQ(stats.all().size(), 1u);
}

TEST(MetricRegistryTest, AliasLegacyAttachesToExistingPath)
{
    Counter counter;
    counter.increment(2);
    MetricRegistry registry;
    registry.addCounter("controller.writes_eliminated", counter, "");
    registry.aliasLegacy("controller.writes_eliminated",
                         "writes_eliminated");

    StatSet stats;
    registry.fillStatSet(stats);
    EXPECT_EQ(stats.get("writes_eliminated"), 2.0);
}

TEST(MetricRegistryTest, FindMissingPathReturnsNull)
{
    MetricRegistry registry;
    EXPECT_EQ(registry.find("no.such.path"), nullptr);
    EXPECT_FALSE(registry.has("no.such.path"));
}

// --- wiring bugs panic -----------------------------------------------

TEST(MetricRegistryDeathTest, PathCollisionPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Counter a, b;
    MetricRegistry registry;
    registry.addCounter("dup.path", a, "");
    EXPECT_DEATH(registry.addCounter("dup.path", b, ""), "dup.path");
}

TEST(MetricRegistryDeathTest, EmptyPathPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Counter c;
    MetricRegistry registry;
    EXPECT_DEATH(registry.addCounter("", c, ""), "");
}

TEST(MetricRegistryDeathTest, AliasOfMissingPathPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    MetricRegistry registry;
    EXPECT_DEATH(registry.aliasLegacy("absent.path", "legacy"),
                 "absent.path");
}

TEST(MetricRegistryDeathTest, SecondLegacyNamePanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Counter c;
    MetricRegistry registry;
    registry.addCounter("p", c, "", "first_legacy");
    EXPECT_DEATH(registry.aliasLegacy("p", "second_legacy"), "p");
}

} // namespace
} // namespace dewrite::obs
