/**
 * @file
 * Synthetic workload generator tests.
 */

#include "trace/trace_gen.hh"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/crc32.hh"
#include "trace/app_catalog.hh"
#include "trace/workload_stats.hh"

namespace dewrite {
namespace {

AppProfile
testProfile(double dup_target)
{
    AppProfile profile;
    profile.name = "test";
    profile.suite = "TEST";
    profile.dupTarget = dup_target;
    profile.zeroGivenDup = 0.2;
    profile.statePersistence = 0.9;
    profile.writeFraction = 0.5;
    profile.rewriteFraction = 0.6;
    profile.mutateWordsMax = 6;
    profile.workingSetLines = 4096;
    profile.instGapMean = 100.0;
    profile.popularityTheta = 0.7;
    return profile;
}

/** Chains crc32c over one event's fields onto @p digest. */
std::uint32_t
chainDigest(std::uint32_t digest, const MemEvent &event)
{
    std::uint8_t bytes[sizeof digest + 1 + sizeof event.addr +
                       sizeof event.instGap + kLineSize];
    std::size_t size = 0;
    const auto put = [&](const void *src, std::size_t n) {
        std::memcpy(bytes + size, src, n);
        size += n;
    };
    put(&digest, sizeof digest);
    const std::uint8_t is_write = event.isWrite ? 1 : 0;
    put(&is_write, 1);
    put(&event.addr, sizeof event.addr);
    put(&event.instGap, sizeof event.instGap);
    if (event.isWrite)
        put(event.data.data(), kLineSize);
    return crc32c(bytes, size);
}

TEST(SyntheticWorkloadTest, StreamMatchesRecordedDigest)
{
    // Pins the whole event stream, fill and post-fill alike. Working
    // sets are cut to 512 lines, so 64000 events pass each core's fill
    // several times over; the golden cells (4000 events over 32768-line
    // working sets) never leave it. The digests were recorded from this
    // generator: a change that keeps the stream byte-identical keeps
    // them. sjeng's duplicates are mostly zero lines.
    struct Case
    {
        const char *app;
        unsigned cores;
        std::uint32_t digest;
    };
    for (const Case &c : { Case{ "cactusADM", 4, 0x295879d2u },
                           Case{ "vips", 4, 0x3ac7be80u },
                           Case{ "sjeng", 4, 0xf90e451cu },
                           Case{ "cactusADM", 1, 0x72faae71u } }) {
        AppProfile profile = appByName(c.app);
        profile.workingSetLines = 512;
        std::vector<std::unique_ptr<SyntheticWorkload>> cores;
        if (c.cores == 1) {
            // The shape TenantMux builds: base 0 and a private phase.
            cores.push_back(std::make_unique<SyntheticWorkload>(profile, 41));
        } else {
            // The shape runApp builds: disjoint bases, one shared phase.
            auto phase = std::make_shared<SharedPhase>();
            for (unsigned core = 0; core < c.cores; ++core) {
                cores.push_back(std::make_unique<SyntheticWorkload>(
                    profile, 41 + core,
                    core * 2 * profile.workingSetLines, phase));
            }
        }
        std::uint32_t digest = 0;
        std::vector<bool> written(c.cores * 2 * profile.workingSetLines);
        std::uint64_t distinct = 0;
        MemEvent event;
        for (int i = 0; i < 64000; ++i) {
            ASSERT_TRUE(cores[i % cores.size()]->next(event));
            digest = chainDigest(digest, event);
            if (event.isWrite && !written[event.addr]) {
                written[event.addr] = true;
                ++distinct;
            }
        }
        EXPECT_EQ(distinct, c.cores * profile.workingSetLines) << c.app;
        EXPECT_EQ(digest, c.digest) << c.app << " on " << c.cores;
    }
}

TEST(SyntheticWorkloadTest, Deterministic)
{
    SyntheticWorkload a(testProfile(0.5), 7);
    SyntheticWorkload b(testProfile(0.5), 7);
    for (int i = 0; i < 1000; ++i) {
        MemEvent ea, eb;
        ASSERT_TRUE(a.next(ea));
        ASSERT_TRUE(b.next(eb));
        EXPECT_EQ(ea.isWrite, eb.isWrite);
        EXPECT_EQ(ea.addr, eb.addr);
        EXPECT_EQ(ea.instGap, eb.instGap);
        if (ea.isWrite) {
            EXPECT_EQ(ea.data, eb.data);
        }
    }
}

TEST(SyntheticWorkloadTest, SeedsDiverge)
{
    SyntheticWorkload a(testProfile(0.5), 1);
    SyntheticWorkload b(testProfile(0.5), 2);
    int identical = 0;
    for (int i = 0; i < 200; ++i) {
        MemEvent ea, eb;
        a.next(ea);
        b.next(eb);
        identical += ea.addr == eb.addr && ea.isWrite == eb.isWrite;
    }
    EXPECT_LT(identical, 150);
}

TEST(SyntheticWorkloadTest, FirstEventIsWrite)
{
    SyntheticWorkload workload(testProfile(0.5), 3);
    MemEvent event;
    ASSERT_TRUE(workload.next(event));
    EXPECT_TRUE(event.isWrite);
}

TEST(SyntheticWorkloadTest, ReadsTargetWrittenAddresses)
{
    SyntheticWorkload workload(testProfile(0.5), 4);
    std::unordered_map<LineAddr, bool> written;
    MemEvent event;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(workload.next(event));
        if (event.isWrite)
            written[event.addr] = true;
        else
            EXPECT_TRUE(written.contains(event.addr)) << "event " << i;
    }
}

TEST(SyntheticWorkloadTest, DupFractionTracksTarget)
{
    for (double target : { 0.2, 0.5, 0.9 }) {
        SyntheticWorkload workload(testProfile(target), 5);
        const WorkloadStats stats = measureWorkload(workload, 30000);
        EXPECT_NEAR(stats.dupFraction(), target, 0.08)
            << "target " << target;
    }
}

TEST(SyntheticWorkloadTest, StatePersistenceEmergesFromMarkovChain)
{
    SyntheticWorkload workload(testProfile(0.5), 6);
    const WorkloadStats stats = measureWorkload(workload, 30000);
    EXPECT_GT(stats.statePersistence(), 0.85);
}

TEST(SyntheticWorkloadTest, WorkingSetBoundsAddresses)
{
    AppProfile profile = testProfile(0.5);
    profile.workingSetLines = 256;
    SyntheticWorkload workload(profile, 7);
    MemEvent event;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(workload.next(event));
        EXPECT_LT(event.addr, 256u);
    }
}

TEST(SyntheticWorkloadTest, ZeroLinesAppearInDupHeavyStreams)
{
    AppProfile profile = testProfile(0.8);
    profile.zeroGivenDup = 0.9;
    SyntheticWorkload workload(profile, 8);
    const WorkloadStats stats = measureWorkload(workload, 20000);
    EXPECT_GT(stats.zeroFraction(), 0.4);
}

TEST(WorstCaseWorkloadTest, NoDuplicatesEver)
{
    WorstCaseWorkload workload(512, 100.0, 9);
    const WorkloadStats stats = measureWorkload(workload, 20000);
    EXPECT_EQ(stats.duplicateWrites, 0u);
    EXPECT_EQ(stats.zeroWrites, 0u);
}

TEST(WorstCaseWorkloadTest, AlternatesWriteAndReadPasses)
{
    WorstCaseWorkload workload(16, 100.0, 10);
    MemEvent event;
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(workload.next(event));
        EXPECT_TRUE(event.isWrite);
        EXPECT_EQ(event.addr, static_cast<LineAddr>(i));
    }
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(workload.next(event));
        EXPECT_FALSE(event.isWrite);
    }
    ASSERT_TRUE(workload.next(event));
    EXPECT_TRUE(event.isWrite); // Next write pass with fresh values.
}

} // namespace
} // namespace dewrite
