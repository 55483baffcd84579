/**
 * @file
 * ShardRouter unit tests: the partition must be a bijection and the
 * per-shard geometry must cover it.
 */

#include <gtest/gtest.h>

#include <set>

#include "service/shard_router.hh"

namespace dewrite {
namespace {

TEST(ShardRouter, FoldsTenantsIntoDisjointKeyRanges)
{
    const ShardRouter router(4, 3, 100);
    EXPECT_EQ(router.globalLines(), 300u);
    std::set<std::uint64_t> keys;
    for (std::uint64_t tenant = 0; tenant < 3; ++tenant)
        for (LineAddr addr = 0; addr < 100; ++addr)
            keys.insert(router.globalKey(tenant, addr));
    EXPECT_EQ(keys.size(), 300u);
    EXPECT_EQ(*keys.begin(), 0u);
    EXPECT_EQ(*keys.rbegin(), 299u);
}

TEST(ShardRouter, PartitionIsABijection)
{
    // Every global key must map to exactly one (shard, local) pair and
    // back: g = local * S + shard under the interleaved partition.
    for (std::size_t shards : { 1u, 2u, 3u, 5u, 8u, 64u }) {
        const ShardRouter router(shards, 4, 64);
        for (std::uint64_t g = 0; g < router.globalLines(); ++g) {
            const std::size_t shard = router.shardOf(g);
            const LineAddr local = router.localAddr(g);
            ASSERT_LT(shard, shards);
            ASSERT_LT(local, router.shardLines());
            ASSERT_EQ(local * shards + shard, g);
        }
    }
}

TEST(ShardRouter, ShardLinesCoverTheWholeSpace)
{
    for (std::size_t shards = 1; shards <= kMaxShards; ++shards) {
        const ShardRouter router(shards, 7, 97); // Deliberately odd.
        // ceil(globalLines / shards), and never an over-allocation of
        // more than one line per shard.
        EXPECT_GE(router.shardLines() * shards, router.globalLines());
        EXPECT_LT((router.shardLines() - 1) * shards,
                  router.globalLines());
    }
}

TEST(ShardRouter, ShardConfigSizesTheShard)
{
    const ShardRouter router(8, 16, 4096);
    SystemConfig base;
    const SystemConfig config = router.shardConfig(base, 50000);
    EXPECT_EQ(config.memory.numLines, router.shardLines());
    // Hint capped by the shard size here (8192 lines < 50000 events).
    EXPECT_EQ(config.memory.workingSetHintLines, router.shardLines());

    // A tiny event budget caps the hint below the shard size.
    const SystemConfig small = router.shardConfig(base, 2000);
    EXPECT_EQ(small.memory.workingSetHintLines, 2000u);

    // An explicit hint is never overridden.
    base.memory.workingSetHintLines = 123;
    EXPECT_EQ(router.shardConfig(base, 50000).memory.workingSetHintLines,
              123u);
}

TEST(ShardRouterDeathTest, RejectsShardCountsOutsideTheRange)
{
    // ServiceOptions::shards reaches the router unvalidated; the range
    // check runs before the shard count becomes a divisor.
    EXPECT_DEATH(ShardRouter(0, 1, 1), "outside 1\\.\\.64");
    EXPECT_DEATH(ShardRouter(kMaxShards + 1, 1, 1), "outside 1\\.\\.64");
}

} // namespace
} // namespace dewrite
