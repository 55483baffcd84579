/**
 * @file
 * ShardRouter implementation.
 */

#include "service/shard_router.hh"

#include <algorithm>

#include "common/check.hh"

namespace dewrite {

namespace {

/** @p shards after the range check; runs before div_ divides by it. */
std::size_t
checkedShardCount(std::size_t shards)
{
    DEWRITE_CHECK(shards >= 1 && shards <= kMaxShards,
                  "shard count %zu outside 1..%zu", shards, kMaxShards);
    return shards;
}

} // namespace

ShardRouter::ShardRouter(std::size_t shards, std::uint64_t tenants,
                         std::uint64_t lines_per_tenant)
    : shards_(checkedShardCount(shards)), tenants_(tenants),
      linesPerTenant_(lines_per_tenant),
      globalLines_(tenants * lines_per_tenant),
      div_(static_cast<std::uint64_t>(shards_))
{
    DEWRITE_CHECK(tenants >= 1, "service needs at least one tenant");
    DEWRITE_CHECK(lines_per_tenant >= 1,
                  "tenant namespaces need at least one line");
    shardLines_ = (globalLines_ - 1) / shards_ + 1;
}

SystemConfig
ShardRouter::shardConfig(const SystemConfig &base,
                         std::uint64_t max_events) const
{
    SystemConfig config = base;
    config.memory.numLines = shardLines_;
    if (config.memory.workingSetHintLines == 0) {
        // Same cap rule as runAppDetailed: a shard fed N events writes at
        // most N distinct lines, so never reserve beyond that.
        config.memory.workingSetHintLines = std::min<std::uint64_t>(
            shardLines_, std::max<std::uint64_t>(max_events, 1024));
    }
    return config;
}

} // namespace dewrite
