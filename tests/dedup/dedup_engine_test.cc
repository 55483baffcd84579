/**
 * @file
 * DedupEngine tests: the full write/read semantics of Section III-B,
 * including reference lifecycles, relocation, counter colocation, and
 * real CRC-32 collision handling.
 */

#include "dedup/dedup_engine.hh"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/crc32.hh"
#include "common/hash_latency.hh"
#include "common/rng.hh"
#include "dedup/metadata_auditor.hh"
#include "nvm/nvm_device.hh"
#include "sim/system.hh"

namespace dewrite {
namespace {

class DedupEngineTest : public ::testing::Test
{
  protected:
    DedupEngineTest()
        : device_(config()), cme_(key()),
          metadata_(config(), device_, config().memory.numLines),
          engine_(config(), device_, metadata_, cme_)
    {
    }

    static const SystemConfig &
    config()
    {
        static SystemConfig instance = [] {
            SystemConfig c;
            c.memory.numLines = 1 << 16;
            return c;
        }();
        return instance;
    }

    static AesKey
    key()
    {
        AesKey k{};
        k[3] = 0x42;
        return k;
    }

    /** Full write through detect + commit, like the controller does. */
    WriteCommit
    writeLine(LineAddr addr, const Line &data, bool allow_fill = true)
    {
        const DetectOutcome det = engine_.detect(data, now_, allow_fill);
        WriteCommit commit;
        if (det.duplicate) {
            commit = engine_.commitDuplicate(addr, det, det.done);
        } else {
            commit = engine_.commitUnique(
                addr, data, det.hash, det.done,
                det.done + config().timing.aesLine);
        }
        now_ = commit.done;
        return commit;
    }

    Line
    readLine(LineAddr addr, bool expect_valid = true)
    {
        const ReadOutcome out = engine_.read(addr, now_);
        now_ = out.done;
        EXPECT_EQ(out.valid, expect_valid) << "addr " << addr;
        return out.data;
    }

    NvmDevice device_;
    CounterModeEngine cme_;
    MetadataCache metadata_;
    DedupEngine engine_;
    Time now_ = 0;
};

TEST_F(DedupEngineTest, UniqueWriteRoundTrips)
{
    Rng rng(71);
    const Line data = Line::random(rng);
    const WriteCommit commit = writeLine(1, data);
    EXPECT_TRUE(commit.wroteLine);
    EXPECT_EQ(commit.slot, 1u); // Own slot preferred.
    EXPECT_EQ(readLine(1), data);
    EXPECT_EQ(engine_.uniqueCommits(), 1u);
}

TEST_F(DedupEngineTest, StoredCiphertextDiffersFromPlaintext)
{
    Rng rng(72);
    const Line data = Line::random(rng);
    writeLine(1, data);
    EXPECT_NE(device_.peek(1), data); // Encrypted at rest.
}

TEST_F(DedupEngineTest, DuplicateWriteIsEliminated)
{
    Rng rng(73);
    const Line data = Line::random(rng);
    writeLine(1, data);
    const DetectOutcome det = engine_.detect(data, now_, true);
    EXPECT_TRUE(det.authoritative);
    EXPECT_TRUE(det.duplicate);
    EXPECT_EQ(det.dupSlot, 1u);
    EXPECT_GT(det.confirmReads, 0u);

    const WriteCommit commit = writeLine(2, data);
    EXPECT_FALSE(commit.wroteLine);
    EXPECT_EQ(commit.slot, 1u);
    EXPECT_EQ(engine_.duplicateCommits(), 1u);
    EXPECT_EQ(engine_.hashStore().reference(crc32(data), 1), 2u);
    EXPECT_TRUE(engine_.lines().at(2).isRemapped());
    EXPECT_EQ(engine_.lines().at(2).realAddr(), 1u);

    // Both logical lines read the same content; only one device line
    // was ever written.
    EXPECT_EQ(readLine(1), data);
    EXPECT_EQ(readLine(2), data);
    EXPECT_FALSE(device_.isWritten(2));
}

TEST_F(DedupEngineTest, SilentStoreLeavesStateUntouched)
{
    Rng rng(74);
    const Line data = Line::random(rng);
    writeLine(1, data);
    const std::uint64_t device_writes = device_.numWrites();
    writeLine(1, data); // Same content, same address.
    EXPECT_EQ(engine_.silentStores(), 1u);
    EXPECT_EQ(device_.numWrites(), device_writes);
    EXPECT_EQ(engine_.hashStore().reference(crc32(data), 1), 1u);
    EXPECT_EQ(readLine(1), data);
}

TEST_F(DedupEngineTest, ExclusiveRewriteStaysInPlace)
{
    Rng rng(75);
    const Line first = Line::random(rng);
    const Line second = Line::random(rng);
    writeLine(1, first);
    const std::uint64_t counter_before = engine_.counterOf(1);
    const WriteCommit commit = writeLine(1, second);
    EXPECT_EQ(commit.slot, 1u);
    EXPECT_FALSE(commit.reencrypted);
    EXPECT_EQ(engine_.counterOf(1), counter_before + 1);
    // The stale fingerprint is gone, the new one is live.
    EXPECT_TRUE(engine_.hashStore().lookup(crc32(first)).empty());
    EXPECT_EQ(engine_.hashStore().reference(crc32(second), 1), 1u);
    EXPECT_EQ(readLine(1), second);
}

TEST_F(DedupEngineTest, RewriteOfSharedSlotRelocates)
{
    Rng rng(76);
    const Line shared = Line::random(rng);
    const Line fresh = Line::random(rng);
    writeLine(1, shared);
    writeLine(2, shared); // Slot 1 now referenced by lines 1 and 2.

    const WriteCommit commit = writeLine(1, fresh);
    EXPECT_TRUE(commit.wroteLine);
    EXPECT_NE(commit.slot, 1u); // Old data still referenced by line 2.
    EXPECT_TRUE(commit.reencrypted);
    EXPECT_EQ(engine_.reencryptions(), 1u);

    EXPECT_EQ(readLine(1), fresh);
    EXPECT_EQ(readLine(2), shared);
    EXPECT_EQ(engine_.hashStore().reference(crc32(shared), 1), 1u);
}

TEST_F(DedupEngineTest, LastReferenceFreesSlot)
{
    Rng rng(77);
    const Line shared = Line::random(rng);
    writeLine(1, shared);
    writeLine(2, shared);
    // Overwrite both references with unique lines.
    writeLine(1, Line::random(rng));
    EXPECT_FALSE(engine_.freeSpace().isFree(1)); // Line 2 still there.
    writeLine(2, Line::random(rng));
    EXPECT_TRUE(engine_.freeSpace().isFree(1));
    EXPECT_TRUE(engine_.hashStore().lookup(crc32(shared)).empty());
    EXPECT_FALSE(engine_.lines().at(1).holdsData());
}

TEST_F(DedupEngineTest, ZeroLinesAllDeduplicateToOneSlot)
{
    const Line zero;
    writeLine(10, zero);
    for (LineAddr addr = 11; addr < 30; ++addr)
        writeLine(addr, zero);
    EXPECT_EQ(engine_.duplicateCommits(), 19u);
    EXPECT_EQ(engine_.hashStore().reference(crc32(zero), 10), 20u);
    for (LineAddr addr = 10; addr < 30; ++addr)
        EXPECT_EQ(readLine(addr), zero);
}

TEST_F(DedupEngineTest, CrcCollisionIsNotMistakenForDuplicate)
{
    // Find a real CRC-32 collision among sparse lines (first word
    // random, rest zero). The 32-bit birthday bound makes this quick.
    std::unordered_map<std::uint32_t, std::uint64_t> seen;
    Rng rng(78);
    std::uint64_t seed_a = 0, seed_b = 0;
    for (;;) {
        const std::uint64_t candidate = rng.next64();
        Line line;
        line.setWord64(0, candidate);
        const std::uint32_t hash = crc32(line);
        auto [it, inserted] = seen.emplace(hash, candidate);
        if (!inserted && it->second != candidate) {
            seed_a = it->second;
            seed_b = candidate;
            break;
        }
    }
    Line line_a;
    line_a.setWord64(0, seed_a);
    Line line_b;
    line_b.setWord64(0, seed_b);
    ASSERT_EQ(crc32(line_a), crc32(line_b));
    ASSERT_NE(line_a, line_b);

    writeLine(1, line_a);
    const DetectOutcome det = engine_.detect(line_b, now_, true);
    EXPECT_FALSE(det.duplicate); // Read-and-compare rejected it.
    EXPECT_GE(engine_.collisionMismatches(), 1u);

    writeLine(2, line_b);
    EXPECT_EQ(readLine(1), line_a);
    EXPECT_EQ(readLine(2), line_b);
    // Both live under one hash: a two-entry chain.
    EXPECT_EQ(engine_.hashStore().lookup(crc32(line_a)).size(), 2u);
}

TEST_F(DedupEngineTest, PnaSkipMissesDuplicateButStaysCorrect)
{
    Rng rng(79);
    const Line data = Line::random(rng);
    writeLine(1, data);

    // Evict the hash-store block from the metadata cache so the probe
    // misses, then detect with fills disallowed (predicted non-dup).
    for (int i = 0; i < 40000; ++i) {
        Line filler;
        filler.setWord64(0, rng.next64());
        engine_.detect(filler, now_, true);
    }
    const DetectOutcome det = engine_.detect(data, now_, false);
    if (!det.authoritative) {
        EXPECT_FALSE(det.duplicate);
        EXPECT_GE(engine_.missedByPna(), 1u);
        // Writing it as unique is functionally safe.
        writeLine(2, data, false);
        EXPECT_EQ(readLine(2), data);
        EXPECT_EQ(readLine(1), data);
    } else {
        // The block survived in cache; the hit path must confirm.
        EXPECT_TRUE(det.duplicate);
    }
}

TEST_F(DedupEngineTest, ReadOfUnwrittenLineIsInvalidZero)
{
    const Line data = readLine(999, /*expect_valid=*/false);
    EXPECT_TRUE(data.isZero());
}

TEST_F(DedupEngineTest, ForeignSlotAllocationDoesNotAliasReads)
{
    Rng rng(80);
    // Fill a shared slot, then force relocations until some
    // never-written logical line's slot gets foreign data.
    const Line shared = Line::random(rng);
    writeLine(1, shared);
    writeLine(2, shared);
    writeLine(1, Line::random(rng)); // Relocates to a foreign slot F.
    // Whatever slot was chosen, reading that logical line must still
    // report "never written", not the foreign data.
    const LineAddr foreign = engine_.lines().at(1).realAddr();
    ASSERT_NE(foreign, 1u);
    if (foreign != 2) {
        const ReadOutcome out = engine_.read(foreign, now_);
        EXPECT_FALSE(out.valid);
        EXPECT_TRUE(out.data.isZero());
    }
}

TEST_F(DedupEngineTest, CountersNeverRegress)
{
    Rng rng(81);
    std::uint64_t last = engine_.counterOf(1);
    for (int i = 0; i < 10; ++i) {
        writeLine(1, Line::random(rng));
        const std::uint64_t current = engine_.counterOf(1);
        EXPECT_GE(current, last);
        last = current;
    }
}

// Slot 1's counter spills into its record once logical 1 is remapped
// while slot 1 still holds data another line shares, keeps its value
// there, and moves back to a table home when the data dies.
TEST_F(DedupEngineTest, SpilledCounterRoundTripsThroughTheRecord)
{
    Rng rng(82);
    const Line shared = Line::random(rng);
    const Line other = Line::random(rng);
    writeLine(1, shared);
    writeLine(2, shared); // Slot 1 referenced by lines 1 and 2.
    writeLine(3, other);
    const std::uint64_t counter = engine_.counterOf(1);
    ASSERT_NE(counter, 0u);
    EXPECT_EQ(engine_.overflowCounters(), 0u);

    // Line 1 joins slot 3; slot 1 keeps line 2's data, so both of slot
    // 1's homes are occupied.
    writeLine(1, other);
    const LineRecord &record = engine_.lines().at(1);
    ASSERT_TRUE(record.isRemapped());
    ASSERT_TRUE(record.holdsData());
    EXPECT_EQ(record.counterHome(), nullptr);
    EXPECT_TRUE(record.spilled());
    EXPECT_EQ(engine_.overflowCounters(), 1u);
    EXPECT_EQ(engine_.counterOf(1), counter);
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    EXPECT_EQ(readLine(1), other);
    EXPECT_EQ(readLine(2), shared);

    // Line 2 moves on: slot 1's data dies, its inverted-hash entry
    // becomes the counter's home again.
    const Line fresh = Line::random(rng);
    writeLine(2, fresh);
    EXPECT_FALSE(record.holdsData());
    EXPECT_FALSE(record.spilled());
    ASSERT_NE(record.counterHome(), nullptr);
    EXPECT_EQ(engine_.overflowCounters(), 0u);
    EXPECT_EQ(engine_.counterOf(1), counter);
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    EXPECT_EQ(readLine(1), other);
    EXPECT_EQ(readLine(2), fresh);
}

TEST(DedupEngineDeathTest, CountersWiderThanTheSpillFieldAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SystemConfig config;
    config.memory.numLines = 1 << 10;
    NvmDevice device(config);
    CounterModeEngine cme(AesKey{});
    MetadataCache metadata(config, device, config.memory.numLines);
    DedupEngine::Options options;
    options.counterBits = 33;
    EXPECT_DEATH(DedupEngine(config, device, metadata, cme, options),
                 "spill field");
}

TEST_F(DedupEngineTest, DetectLatencyReflectsAsymmetricCost)
{
    Rng rng(82);
    const Line data = Line::random(rng);
    writeLine(1, data);

    // Duplicate detection pays CRC + confirmation read; unique
    // detection of an unseen hash pays only CRC + metadata probing.
    const DetectOutcome dup = engine_.detect(data, now_, true);
    ASSERT_TRUE(dup.duplicate);
    EXPECT_GE(dup.done - now_,
              hashSpec(HashFunction::Crc32).latency +
                  config().timing.nvmRead);

    Line unseen;
    unseen.setWord64(0, rng.next64());
    // Warm the hash-store block first: the steady-state unique path is
    // CRC + an on-chip probe, far below the duplicate's confirm read.
    engine_.detect(unseen, now_, true);
    const DetectOutcome unique = engine_.detect(unseen, now_, true);
    EXPECT_FALSE(unique.duplicate);
    EXPECT_LT(unique.done - now_, dup.done - now_);
}

TEST_F(DedupEngineTest, DuplicateOfRemappedLineChainsCorrectly)
{
    Rng rng(83);
    const Line a = Line::random(rng);
    const Line b = Line::random(rng);
    writeLine(1, a);
    writeLine(2, a);  // 2 -> slot 1.
    writeLine(3, b);
    writeLine(2, b);  // 2 drops slot 1, joins slot 3.
    EXPECT_EQ(engine_.lines().at(2).realAddr(), 3u);
    EXPECT_EQ(engine_.hashStore().reference(crc32(a), 1), 1u);
    EXPECT_EQ(engine_.hashStore().reference(crc32(b), 3), 2u);
    EXPECT_EQ(readLine(1), a);
    EXPECT_EQ(readLine(2), b);
    EXPECT_EQ(readLine(3), b);
}

TEST_F(DedupEngineTest, SaturatedLineRefusesFurtherDedup)
{
    const Line popular = Line::pattern(0x1111111111111111ULL);
    writeLine(0, popular);
    for (LineAddr addr = 1; addr < 255; ++addr)
        writeLine(addr, popular);
    EXPECT_EQ(engine_.hashStore().reference(crc32(popular), 0), 255u);
    // The 256th logical copy is written as unique data.
    const WriteCommit commit = writeLine(300, popular);
    EXPECT_TRUE(commit.wroteLine);
    EXPECT_EQ(readLine(300), popular);
    EXPECT_GE(engine_.missedBySaturation(), 1u);
}

TEST_F(DedupEngineTest, HighestAddressRoundTrips)
{
    Rng rng(88);
    const LineAddr last = config().memory.numLines - 1;
    const Line data = Line::random(rng);
    writeLine(last, data);
    EXPECT_EQ(readLine(last), data);
}

TEST(DedupEngineFullMemoryTest, ExhaustionIsFatal)
{
    // A memory with very few slots fills up once unique lines exceed
    // capacity; the engine reports it as a user-visible fatal, not
    // silent corruption.
    SystemConfig config;
    config.memory.numLines = 4;
    NvmDevice device(config);
    CounterModeEngine cme(defaultAesKey());
    MetadataCache metadata(config, device, config.memory.numLines);
    DedupEngine engine(config, device, metadata, cme);

    EXPECT_EXIT(
        {
            Rng rng(89);
            Time now = 0;
            for (LineAddr addr = 0; addr < 10; ++addr) {
                const Line data = Line::random(rng);
                const DetectOutcome det = engine.detect(data, now, true);
                const WriteCommit commit = engine.commitUnique(
                    addr, data, det.hash, det.done, det.done);
                now = commit.done;
            }
        },
        testing::ExitedWithCode(1), "full");
}

TEST_F(DedupEngineTest, CountersNeverWrapAtPaperWidth)
{
    Rng rng(85);
    for (int i = 0; i < 20; ++i)
        writeLine(5, Line::random(rng));
    EXPECT_EQ(engine_.counterWraps(), 0u);
}

class TinyCounterTest : public DedupEngineTest
{
  protected:
    TinyCounterTest()
        : tinyEngine_(config(), device_, metadata_, cme_,
                      DedupEngine::Options{ DetectPolicy::ConfirmRead,
                                            nullptr, 4,
                                            HashFunction::Crc32,
                                            /*counterBits=*/4 })
    {
    }

    void
    writeTiny(LineAddr addr, const Line &data)
    {
        const DetectOutcome det = tinyEngine_.detect(data, tnow_, true);
        const WriteCommit commit = det.duplicate
            ? tinyEngine_.commitDuplicate(addr, det, det.done)
            : tinyEngine_.commitUnique(addr, data, det.hash, det.done,
                                       det.done);
        tnow_ = commit.done;
    }

    DedupEngine tinyEngine_;
    Time tnow_ = 0;
};

TEST_F(TinyCounterTest, MinorWrapRollsIntoMajorCounter)
{
    // A 4-bit minor counter wraps every 16 writes; the split-counter
    // discipline must keep every OTP fresh, so data remains readable
    // across wraps.
    Rng rng(86);
    Line last;
    for (int i = 0; i < 40; ++i) {
        last = Line::random(rng);
        writeTiny(3, last);
    }
    EXPECT_GE(tinyEngine_.counterWraps(), 2u);
    EXPECT_EQ(tinyEngine_.read(3, tnow_).data, last);
    // The stored (colocated) counter stays within its field width.
    EXPECT_LT(tinyEngine_.counterOf(3), 16u);
}

TEST_F(TinyCounterTest, DedupAcrossWrappedLinesStillWorks)
{
    Rng rng(87);
    const Line shared = Line::random(rng);
    for (int i = 0; i < 20; ++i)
        writeTiny(1, Line::random(rng)); // Wrap line 1's counter.
    writeTiny(1, shared);
    writeTiny(2, shared); // Must dedup against the wrapped line.
    EXPECT_EQ(tinyEngine_.duplicateCommits(), 1u);
    EXPECT_EQ(tinyEngine_.read(2, tnow_).data, shared);
}

class UnsafeDedupTest : public DedupEngineTest
{
  protected:
    UnsafeDedupTest()
        : unsafeEngine_(config(), device_, metadata_, cme_,
                        DedupEngine::Options{ DetectPolicy::WeakOnly,
                                              nullptr })
    {
    }

    DedupEngine unsafeEngine_;
};

TEST_F(UnsafeDedupTest, TrustingTheHashSkipsConfirmReads)
{
    Rng rng(84);
    const Line data = Line::random(rng);
    DetectOutcome det = unsafeEngine_.detect(data, 0, true);
    const WriteCommit first =
        unsafeEngine_.commitUnique(1, data, det.hash, det.done, det.done);

    det = unsafeEngine_.detect(data, first.done, true);
    EXPECT_TRUE(det.duplicate);
    EXPECT_EQ(det.confirmReads, 0u);
    EXPECT_EQ(unsafeEngine_.unsafeCorruptions(), 0u);
}

} // namespace
} // namespace dewrite
