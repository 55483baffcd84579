/**
 * @file
 * Deterministic address→shard routing for the sharded dedup service.
 *
 * The service partitions the multi-tenant address space and *all* dedup
 * metadata into S fully independent shards. The unit of
 * partitioning is the global line key
 *
 *     g = tenant * linesPerTenant + addr
 *
 * which folds every tenant's private namespace into one flat space;
 * shard ownership is g mod S and the line's address inside its shard is
 * g div S (a modulo-interleaved partition, so every shard sees a
 * representative slice of every tenant rather than whole tenants — the
 * same reason NVM banks line-interleave). Both operations go through
 * FastDiv, so routing is two multiplies on the ingest hot path.
 *
 * Because a shard's metadata (hash store, mapping, counters, caches) is
 * keyed only by local addresses, two shards share no mutable state at
 * all: no locks, no false sharing, and per-shard results that are
 * bit-identical to N independent single-shard systems — the parity
 * contract the service tests pin.
 */

#ifndef DEWRITE_SERVICE_SHARD_ROUTER_HH
#define DEWRITE_SERVICE_SHARD_ROUTER_HH

#include <cstdint>

#include "common/fast_div.hh"
#include "common/timing.hh"
#include "common/types.hh"

namespace dewrite {

/** Most shards a service will split into. */
constexpr std::size_t kMaxShards = 64;

class ShardRouter
{
  public:
    /**
     * Routes @p tenants namespaces of @p lines_per_tenant lines each
     * across @p shards shards.
     */
    ShardRouter(std::size_t shards, std::uint64_t tenants,
                std::uint64_t lines_per_tenant);

    std::size_t shards() const { return shards_; }
    std::uint64_t tenants() const { return tenants_; }
    std::uint64_t linesPerTenant() const { return linesPerTenant_; }

    /** Total lines of the folded multi-tenant space. */
    std::uint64_t globalLines() const { return globalLines_; }

    /** Lines each shard must address (ceil(globalLines / shards)). */
    std::uint64_t shardLines() const { return shardLines_; }

    /** Folds a tenant-local address into the global key. */
    // dewrite-lint: hot
    std::uint64_t
    globalKey(std::uint64_t tenant, LineAddr addr) const
    {
        return tenant * linesPerTenant_ + addr;
    }

    /** Which shard owns global key @p g. */
    // dewrite-lint: hot
    std::size_t
    shardOf(std::uint64_t g) const
    {
        return static_cast<std::size_t>(div_.mod(g));
    }

    /** @p g's line address inside its owning shard. */
    // dewrite-lint: hot
    LineAddr
    localAddr(std::uint64_t g) const
    {
        return static_cast<LineAddr>(div_.div(g));
    }

    /**
     * The SystemConfig one shard runs with: @p base resized so the
     * shard addresses exactly shardLines() lines, with the working-set
     * hint capped by @p max_events the same way runAppDetailed caps it.
     * Service shards and reference single-shard runs both size through
     * here, so their metadata geometry is byte-identical — a
     * precondition of the parity contract.
     */
    SystemConfig shardConfig(const SystemConfig &base,
                             std::uint64_t max_events) const;

  private:
    std::size_t shards_;
    std::uint64_t tenants_;
    std::uint64_t linesPerTenant_;
    std::uint64_t globalLines_;
    std::uint64_t shardLines_;
    FastDiv div_; //!< Divides by the shard count.
};

} // namespace dewrite

#endif // DEWRITE_SERVICE_SHARD_ROUTER_HH
