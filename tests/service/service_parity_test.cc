/**
 * @file
 * The service's correctness contract: an N-shard DedupService run must
 * produce per-shard result fingerprints identical to N independent
 * single-shard System runs over the same trace partitions — at one
 * worker thread and at eight. Parallelism only decides which host
 * thread drains a shard, never the order within one, so the matrix
 * must be flat across thread counts too.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <vector>

#include "service/dedup_service.hh"

namespace dewrite {
namespace {

ServiceOptions
testOptions(std::size_t shards, unsigned threads)
{
    ServiceOptions options;
    options.shards = shards;
    options.threads = threads;
    options.tenants = 6;
    options.linesPerTenant = 1024;
    options.burstMax = 16;
    options.roundEvents = 1024;
    options.totalEvents = 24000;
    return options;
}

std::vector<std::uint32_t>
serviceFingerprints(std::size_t shards, unsigned threads,
                    std::vector<std::uint64_t> *events_out = nullptr)
{
    DedupService service(testOptions(shards, threads));
    const ServiceResult result = service.run();
    EXPECT_EQ(result.shards.size(), shards);
    EXPECT_EQ(result.totalEvents, 24000u);

    std::vector<std::uint32_t> fingerprints;
    std::uint64_t total = 0;
    for (const ShardOutcome &outcome : result.shards) {
        fingerprints.push_back(outcome.fingerprint);
        total += outcome.events;
        EXPECT_EQ(outcome.events, outcome.cell.run.events);
    }
    EXPECT_EQ(total, result.totalEvents);
    if (events_out) {
        events_out->clear();
        for (const ShardOutcome &outcome : result.shards)
            events_out->push_back(outcome.events);
    }
    return fingerprints;
}

class ServiceParity : public testing::TestWithParam<unsigned>
{
};

TEST_P(ServiceParity, ShardsMatchIndependentSystems)
{
    const unsigned threads = GetParam();
    for (std::size_t shards : { 1u, 4u }) {
        std::vector<std::uint64_t> events;
        const std::vector<std::uint32_t> fingerprints =
            serviceFingerprints(shards, threads, &events);
        for (std::size_t k = 0; k < shards; ++k) {
            const ExperimentResult reference =
                DedupService::runShardReference(
                    testOptions(shards, threads), k, events[k]);
            EXPECT_EQ(fingerprints[k], resultFingerprint(reference))
                << "shard " << k << " of " << shards << " at "
                << threads << " threads";
        }
    }
}

TEST_P(ServiceParity, FingerprintsAreThreadCountInvariant)
{
    const unsigned threads = GetParam();
    EXPECT_EQ(serviceFingerprints(4, threads),
              serviceFingerprints(4, 1));
}

// The shape `bench_service --quick` runs, at 8 shards and 6000 events,
// pinned per shard so a drift names the shard.
TEST_P(ServiceParity, BenchShapeEightShardsMatchPins)
{
    constexpr std::uint32_t kPinned[] = {
        549891491u,  3636316244u, 3036862546u, 260486540u,
        1207999777u, 2319803876u, 3982752544u, 2294090850u,
    };
    ServiceOptions options;
    options.shards = std::size(kPinned);
    options.threads = GetParam();
    options.tenants = 16;
    options.linesPerTenant = 4096;
    options.burstMax = 32;
    options.roundEvents = 4096;
    options.totalEvents = 6000;
    const ServiceResult result = DedupService(options).run();
    ASSERT_EQ(result.shards.size(), std::size(kPinned));
    for (std::size_t k = 0; k < std::size(kPinned); ++k)
        EXPECT_EQ(result.shards[k].fingerprint, kPinned[k]) << "shard " << k;
}

INSTANTIATE_TEST_SUITE_P(Threads, ServiceParity,
                         testing::Values(1u, 8u),
                         [](const auto &param_info) {
                             return "threads" +
                                    std::to_string(param_info.param);
                         });

TEST(ServiceAudit, EveryShardPassesTheRunEndAudit)
{
    // DEWRITE_AUDIT=1 makes finalizeShard run the full metadata
    // consistency walk per shard; any cross-shard state bleed dies
    // inside the walk.
    ::setenv("DEWRITE_AUDIT", "1", 1);
    DedupService service(testOptions(4, 2));
    const ServiceResult result = service.run();
    ::unsetenv("DEWRITE_AUDIT");
    EXPECT_EQ(result.shards.size(), 4u);
}

TEST(ServiceSharding, RoutesEveryEventExactlyOnce)
{
    DedupService service(testOptions(8, 2));
    const ServiceResult result = service.run();
    std::uint64_t writes = 0, reads = 0, events = 0;
    for (const ShardOutcome &outcome : result.shards) {
        writes += outcome.cell.run.writes;
        reads += outcome.cell.run.reads;
        events += outcome.cell.run.events;
        EXPECT_GT(outcome.events, 0u) << "a shard was starved";
    }
    EXPECT_EQ(events, result.totalEvents);
    EXPECT_EQ(writes + reads, events);
}

TEST(ServiceSharding, MoreShardsSameAggregateWork)
{
    // Sharding repartitions the canonical order; the global write
    // stream (and so the aggregate dedup opportunity) is unchanged.
    std::uint64_t writes[2] = { 0, 0 };
    std::size_t i = 0;
    for (std::size_t shards : { 1u, 4u }) {
        DedupService service(testOptions(shards, 2));
        const ServiceResult result = service.run();
        for (const ShardOutcome &outcome : result.shards)
            writes[i] += outcome.cell.run.writes;
        ++i;
    }
    EXPECT_EQ(writes[0], writes[1]);
}

} // namespace
} // namespace dewrite
