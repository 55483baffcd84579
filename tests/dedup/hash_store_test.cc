/**
 * @file
 * HashStore tests: chains, references, saturation, and the records'
 * home in the slots' LineRecords.
 */

#include "dedup/hash_store.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dewrite {
namespace {

class HashStoreTest : public ::testing::Test
{
  protected:
    void
    insert(std::uint64_t hash, LineAddr slot)
    {
        store_.insert(hash, slot, lines_.ref(slot));
    }

    bool
    addReference(LineAddr slot)
    {
        return store_.addReference(lines_.ref(slot));
    }

    bool
    dropReference(std::uint64_t hash, LineAddr slot)
    {
        return store_.dropReference(hash, slot, lines_.ref(slot));
    }

    /** Saturates slot @p slot's record at the reference cap. */
    void
    pin(LineAddr slot)
    {
        while (addReference(slot)) {
        }
    }

    std::vector<LineAddr>
    chain(std::uint64_t hash) const
    {
        const ChainView view = store_.lookup(hash);
        return std::vector<LineAddr>(view.begin(), view.end());
    }

    LineTable lines_;
    HashStore store_{ lines_ };
};

using HashStoreDeathTest = HashStoreTest;

TEST_F(HashStoreTest, EmptyLookup)
{
    EXPECT_TRUE(store_.lookup(0x1234).empty());
    EXPECT_EQ(store_.size(), 0u);
}

TEST_F(HashStoreTest, InsertAndLookup)
{
    insert(0xaaaa, 7);
    const ChainView view = store_.lookup(0xaaaa);
    ASSERT_EQ(view.size(), 1u);
    EXPECT_EQ(view[0], 7u);
    EXPECT_EQ(store_.reference(0xaaaa, 7), 1u);
    EXPECT_TRUE(lines_.at(7).live());
    EXPECT_EQ(lines_.at(7).reference(), 1u);
    EXPECT_EQ(store_.size(), 1u);
}

TEST_F(HashStoreTest, CollisionChains)
{
    insert(0xbbbb, 1);
    insert(0xbbbb, 2);
    EXPECT_EQ(store_.lookup(0xbbbb).size(), 2u);
    EXPECT_EQ(store_.collidingEntries(), 2u);
    EXPECT_EQ(store_.maxChainLength(), 2u);
    EXPECT_EQ(store_.distinctHashes(), 1u);
}

TEST_F(HashStoreTest, ReferenceLifecycle)
{
    insert(0xcccc, 5);
    EXPECT_TRUE(addReference(5));
    EXPECT_EQ(store_.reference(0xcccc, 5), 2u);
    EXPECT_FALSE(dropReference(0xcccc, 5)); // 2 -> 1, survives.
    EXPECT_TRUE(dropReference(0xcccc, 5));  // 1 -> 0, removed.
    EXPECT_TRUE(store_.lookup(0xcccc).empty());
    EXPECT_FALSE(lines_.at(5).live());
    EXPECT_EQ(store_.size(), 0u);
}

TEST_F(HashStoreTest, ReferenceQueryChecksTheChain)
{
    // The audit query reports a count only for the (hash, slot) pair
    // the chain actually holds.
    insert(0x10, 3);
    EXPECT_EQ(store_.reference(0x10, 3), 1u);
    EXPECT_EQ(store_.reference(0x20, 3), 0u);
    EXPECT_EQ(store_.reference(0x10, 4), 0u);
}

TEST_F(HashStoreTest, SaturationRefusesNewReferences)
{
    insert(0xdddd, 3);
    for (int i = 1; i < 255; ++i)
        EXPECT_TRUE(addReference(3));
    EXPECT_EQ(store_.reference(0xdddd, 3), 255u);
    // The 256th reference is refused (Section III-B2).
    EXPECT_FALSE(addReference(3));
    EXPECT_EQ(store_.reference(0xdddd, 3), 255u);
    EXPECT_EQ(store_.saturationRefusals(), 1u);
}

TEST_F(HashStoreTest, SaturatedRecordIsPinned)
{
    insert(0xeeee, 4);
    for (int i = 1; i < 255; ++i)
        addReference(4);
    // Once saturated, drops never free the record: the true count is
    // unknown.
    for (int i = 0; i < 300; ++i)
        EXPECT_FALSE(dropReference(0xeeee, 4));
    EXPECT_EQ(store_.reference(0xeeee, 4), 255u);
}

TEST_F(HashStoreTest, DropOnlyAffectsMatchingSlot)
{
    insert(0xffff, 1);
    insert(0xffff, 2);
    EXPECT_TRUE(dropReference(0xffff, 1));
    EXPECT_EQ(chain(0xffff), std::vector<LineAddr>{ 2 });
    EXPECT_EQ(store_.reference(0xffff, 2), 1u);
}

TEST_F(HashStoreTest, ForEachVisitsEverything)
{
    insert(1, 10);
    insert(2, 20);
    insert(2, 30);
    ASSERT_TRUE(addReference(30));
    std::size_t visited = 0, references = 0;
    store_.forEach([&](std::uint32_t, const HashEntry &entry) {
        ++visited;
        references += entry.reference;
    });
    EXPECT_EQ(visited, 3u);
    EXPECT_EQ(references, 4u);
}

TEST_F(HashStoreTest, SpillBeyondInlineBuffer)
{
    // Chains hold two entries inline; the third spills to the pool.
    insert(0xabcd, 1);
    insert(0xabcd, 2);
    EXPECT_EQ(store_.spilledChains(), 0u);
    insert(0xabcd, 3);
    insert(0xabcd, 4);
    EXPECT_EQ(store_.spilledChains(), 1u);

    EXPECT_EQ(chain(0xabcd), (std::vector<LineAddr>{ 1, 2, 3, 4 }))
        << "append order broken";
    EXPECT_EQ(store_.maxChainLength(), 4u);
    EXPECT_EQ(store_.collidingEntries(), 4u);
    EXPECT_EQ(store_.distinctHashes(), 1u);
}

TEST_F(HashStoreTest, EraseFromSpilledChainKeepsOrder)
{
    for (LineAddr addr = 1; addr <= 5; ++addr)
        insert(0x1111, addr);

    // Logical order (append order minus the erased entry) holds.
    EXPECT_TRUE(dropReference(0x1111, 2));
    EXPECT_EQ(chain(0x1111), (std::vector<LineAddr>{ 1, 3, 4, 5 }));

    // Shrinking back to the inline buffer returns the spill to the pool.
    EXPECT_TRUE(dropReference(0x1111, 4));
    EXPECT_TRUE(dropReference(0x1111, 5));
    EXPECT_EQ(store_.spilledChains(), 0u);
    EXPECT_EQ(chain(0x1111), (std::vector<LineAddr>{ 1, 3 }));
}

TEST_F(HashStoreTest, SpillPoolIsRecycled)
{
    // Growing a second chain after the first shrank must reuse the
    // freed spill vector rather than growing the pool.
    for (LineAddr addr = 1; addr <= 4; ++addr)
        insert(0xaa, addr);
    EXPECT_EQ(store_.spilledChains(), 1u);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        dropReference(0xaa, addr);
    EXPECT_EQ(store_.spilledChains(), 0u);
    EXPECT_EQ(store_.size(), 0u);

    for (LineAddr addr = 10; addr <= 13; ++addr)
        insert(0xbb, addr);
    EXPECT_EQ(store_.spilledChains(), 1u);
    EXPECT_EQ(chain(0xbb), (std::vector<LineAddr>{ 10, 11, 12, 13 }));
}

TEST_F(HashStoreTest, ReferencesTrackedPerEntryInSpilledChain)
{
    for (LineAddr addr = 1; addr <= 4; ++addr)
        insert(0xcc, addr);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(addReference(4)); // Spilled entry.
    EXPECT_EQ(store_.reference(0xcc, 4), 4u);
    EXPECT_EQ(store_.reference(0xcc, 1), 1u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(dropReference(0xcc, 4));
    EXPECT_TRUE(dropReference(0xcc, 4));
    EXPECT_EQ(store_.lookup(0xcc).size(), 3u);
}

// A popular content piles up pinned records under one fingerprint.
// Reference updates on any record of the chain — oldest, middle or
// newest — touch only that record, deaths keep the newest-first probe
// order, and the pinned records survive every drop.
TEST_F(HashStoreTest, LongChainOfPinnedRecords)
{
    constexpr std::uint64_t kHash = 0x5eed;
    constexpr LineAddr kRecords = 1200;
    constexpr LineAddr kOldest = 0, kMiddle = kRecords / 2,
                       kNewest = kRecords - 1;
    for (LineAddr slot = 0; slot < kRecords; ++slot) {
        insert(kHash, slot);
        if (slot != kOldest && slot != kMiddle && slot != kNewest)
            pin(slot);
    }
    ASSERT_EQ(store_.lookup(kHash).size(), kRecords);
    EXPECT_EQ(store_.maxChainLength(), kRecords);

    for (LineAddr slot : { kOldest, kMiddle, kNewest }) {
        EXPECT_TRUE(addReference(slot));
        EXPECT_TRUE(addReference(slot));
        EXPECT_EQ(lines_.at(slot).reference(), 3u);
        EXPECT_FALSE(dropReference(kHash, slot));
        EXPECT_EQ(store_.reference(kHash, slot), 2u);
    }
    // Pinned neighbours of the updated records did not move.
    for (LineAddr slot : { kOldest + 1, kMiddle - 1, kMiddle + 1,
                           kNewest - 1 })
        EXPECT_EQ(lines_.at(slot).reference(), HashStore::kMaxReference);

    // Kill the newest, the middle and the oldest record, in that order.
    std::vector<LineAddr> expect;
    for (LineAddr slot = 0; slot < kRecords; ++slot)
        expect.push_back(slot);
    for (LineAddr slot : { kNewest, kMiddle, kOldest }) {
        EXPECT_FALSE(dropReference(kHash, slot));
        EXPECT_TRUE(dropReference(kHash, slot));
        EXPECT_FALSE(lines_.at(slot).live());
        std::erase(expect, slot);
        ASSERT_EQ(chain(kHash), expect) << "after slot " << slot;
    }

    // Newest-first, the probe now meets the youngest pinned record.
    const ChainView view = store_.lookup(kHash);
    EXPECT_EQ(view[view.size() - 1], kNewest - 1);
    EXPECT_EQ(view[0], kOldest + 1);

    // Every pinned record survives any number of drops.
    for (LineAddr slot : expect) {
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(dropReference(kHash, slot));
        ASSERT_EQ(store_.reference(kHash, slot), HashStore::kMaxReference);
    }
    EXPECT_EQ(store_.size(), kRecords - 3);
    EXPECT_EQ(chain(kHash), expect);
}

TEST_F(HashStoreTest, StrongFingerprintLivesAndDiesWithItsRecord)
{
    const StrongFp fp{ 1, 2 };
    insert(0x77, 9);
    EXPECT_EQ(store_.strongFpOf(9), nullptr); // Invalid on insert.
    store_.setStrongFp(9, fp);
    ASSERT_NE(store_.strongFpOf(9), nullptr);
    EXPECT_EQ(*store_.strongFpOf(9), fp);
    EXPECT_TRUE(lines_.at(9).strongValid());

    // The record's death invalidates it; a new record starts invalid.
    EXPECT_TRUE(dropReference(0x77, 9));
    EXPECT_EQ(store_.strongFpOf(9), nullptr);
    insert(0x88, 9);
    EXPECT_EQ(store_.strongFpOf(9), nullptr);
}

TEST_F(HashStoreTest, RestoreInstallsClampedCount)
{
    store_.restore(0x77, 9, 42);
    EXPECT_EQ(store_.reference(0x77, 9), 42u);
    store_.restore(0x77, 10, 1000); // Above the cap: clamps to 255.
    EXPECT_EQ(store_.reference(0x77, 10), 255u);
    EXPECT_EQ(store_.size(), 2u);
}

TEST_F(HashStoreTest, ClearForgetsRecordsButNotLineEntries)
{
    LineRecord &record = lines_.ref(3);
    record.remap(40);
    record.setHash(0x33);
    record.markWritten();
    insert(0x33, 3);
    pin(3);
    addReference(3); // Refused: counted.
    store_.setStrongFp(3, StrongFp{ 5, 6 });
    for (LineAddr slot = 10; slot < 14; ++slot)
        insert(0x44, slot); // A spilled chain.

    store_.clear();
    EXPECT_EQ(store_.size(), 0u);
    EXPECT_EQ(store_.distinctHashes(), 0u);
    EXPECT_EQ(store_.spilledChains(), 0u);
    EXPECT_EQ(store_.saturationRefusals(), 0u);
    EXPECT_TRUE(store_.lookup(0x33).empty());
    EXPECT_FALSE(record.live());
    EXPECT_FALSE(record.strongValid());
    EXPECT_EQ(store_.strongFpOf(3), nullptr);
    EXPECT_FALSE(lines_.at(12).live());
    // The durable entries and the written flag stay.
    EXPECT_EQ(record.realAddr(), 40u);
    EXPECT_EQ(record.hash(), 0x33u);
    EXPECT_TRUE(record.written());

    // The store is usable again.
    insert(0x33, 3);
    EXPECT_EQ(store_.reference(0x33, 3), 1u);
}

TEST_F(HashStoreTest, ForEachAscendingHashChainOrderWithin)
{
    insert(300, 1);
    insert(5, 2);
    insert(300, 3);
    insert(300, 4); // Spills.
    insert(40, 5);

    std::vector<std::pair<std::uint64_t, LineAddr>> seen;
    store_.forEach([&](std::uint64_t hash, const HashEntry &entry) {
        seen.emplace_back(hash, entry.realAddr);
    });
    const std::vector<std::pair<std::uint64_t, LineAddr>> expect = {
        { 5, 2 }, { 40, 5 }, { 300, 1 }, { 300, 3 }, { 300, 4 },
    };
    EXPECT_EQ(seen, expect);
}

TEST_F(HashStoreDeathTest, SecondLiveRecordOnOneSlotPanics)
{
    // One live record per slot, under any hash.
    insert(7, 7);
    EXPECT_DEATH(insert(7, 7), "already has a live record");
    EXPECT_DEATH(insert(8, 7), "already has a live record");
    EXPECT_DEATH(store_.restore(9, 7, 3), "duplicate restore");
}

TEST_F(HashStoreDeathTest, AddReferenceToAbsentPanics)
{
    EXPECT_DEATH(addReference(9), "no live record");
}

TEST_F(HashStoreDeathTest, DropReferenceFromAbsentPanics)
{
    insert(5, 1);
    EXPECT_DEATH(dropReference(5, 99), "absent");
}

} // namespace
} // namespace dewrite
