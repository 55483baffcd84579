/**
 * @file
 * LineRecord / LineTable tests: the mapping and inverted-hash entries
 * with the counter-colocation flag semantics of Section III-C, and the
 * one-record-per-line layout.
 */

#include "dedup/line_table.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "dedup/hash_store.hh"

namespace dewrite {
namespace {

std::size_t
remappedCount(const LineTable &lines)
{
    std::size_t count = 0;
    lines.forEachRemapped([&](LineAddr, LineAddr) { ++count; });
    return count;
}

std::size_t
dataSlots(const LineTable &lines)
{
    std::size_t count = 0;
    lines.forEachDataSlot([&](LineAddr, std::uint64_t) { ++count; });
    return count;
}

TEST(LineTableTest, UntouchedLinesAreNullWithZeroCounter)
{
    const LineTable lines;
    const LineRecord &record = lines.at(123);
    EXPECT_FALSE(record.isRemapped());
    EXPECT_FALSE(record.holdsData());
    EXPECT_FALSE(record.written());
    EXPECT_FALSE(record.live());
    ASSERT_NE(record.counterHome(), nullptr);
    EXPECT_EQ(*record.counterHome(), 0u);
    EXPECT_EQ(remappedCount(lines), 0u);
    EXPECT_EQ(dataSlots(lines), 0u);
}

TEST(LineTableTest, ReadsDoNotCreateRecords)
{
    LineTable lines;
    lines.reserve(1 << 20);
    (void)lines.at(777);
    std::size_t visited = 0;
    lines.forEach([&](LineAddr, const LineRecord &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(LineTableTest, RemapAndClear)
{
    LineTable lines;
    lines.ref(5).remap(99);
    EXPECT_TRUE(lines.at(5).isRemapped());
    EXPECT_EQ(lines.at(5).realAddr(), 99u);
    EXPECT_EQ(remappedCount(lines), 1u);

    lines.ref(5).clearRemap();
    EXPECT_FALSE(lines.at(5).isRemapped());
    EXPECT_EQ(remappedCount(lines), 0u);
    // Null entries come back zeroed.
    EXPECT_EQ(*lines.at(5).counterHome(), 0u);
}

TEST(LineTableTest, RemapOverwriteKeepsOneEntry)
{
    LineTable lines;
    lines.ref(1).remap(10);
    lines.ref(1).remap(20);
    EXPECT_EQ(lines.at(1).realAddr(), 20u);
    EXPECT_EQ(remappedCount(lines), 1u);
}

TEST(LineTableTest, SetAndClearHash)
{
    LineTable lines;
    lines.ref(9).setHash(0xdeadbeef);
    EXPECT_TRUE(lines.at(9).holdsData());
    EXPECT_EQ(lines.at(9).hash(), 0xdeadbeefu);
    EXPECT_EQ(dataSlots(lines), 1u);

    lines.ref(9).clearHash();
    EXPECT_FALSE(lines.at(9).holdsData());
    EXPECT_EQ(dataSlots(lines), 0u);
}

TEST(LineTableTest, HashOverwriteKeepsOneEntry)
{
    LineTable lines;
    lines.ref(1).setHash(0x11);
    lines.ref(1).setHash(0x22);
    EXPECT_EQ(lines.at(1).hash(), 0x22u);
    EXPECT_EQ(dataSlots(lines), 1u);
}

TEST(LineTableTest, CounterLivesInTheFirstNullEntry)
{
    LineTable lines;
    LineRecord &record = lines.ref(8);

    // A null mapping entry is the counter's home.
    *record.counterHome() = 41;
    EXPECT_EQ(*record.counterHome(), 41u);

    // Remapping occupies the mapping entry: the null inverted-hash
    // entry becomes the home, holding 0 until the counter is re-homed.
    record.remap(3);
    ASSERT_NE(record.counterHome(), nullptr);
    EXPECT_EQ(*record.counterHome(), 0u);
    *record.counterHome() = 1234;
    EXPECT_EQ(record.realAddr(), 3u);
    EXPECT_EQ(*record.counterHome(), 1234u);

    // Both entries occupied: no home, so a counter can never overwrite
    // a realAddr or a fingerprint.
    record.setHash(0x66);
    EXPECT_EQ(record.counterHome(), nullptr);
    EXPECT_EQ(record.realAddr(), 3u);
    EXPECT_EQ(record.hash(), 0x66u);

    // A slot holding data keeps its counter in a null mapping entry.
    record.clearRemap();
    ASSERT_NE(record.counterHome(), nullptr);
    *record.counterHome() = 7;
    EXPECT_EQ(record.hash(), 0x66u);
}

TEST(LineTableDeathTest, RealAddrOfNullEntryPanics)
{
    LineTable lines;
    EXPECT_DEATH((void)lines.at(4).realAddr(), "non-remapped");
}

TEST(LineTableDeathTest, HashOfEmptySlotPanics)
{
    LineTable lines;
    EXPECT_DEATH((void)lines.at(7).hash(), "empty slot");
}

TEST(LineTableTest, RecordsNeverStraddleACacheLine)
{
    LineTable lines;
    for (LineAddr addr : { 0ULL, 1ULL, 2ULL, 5ULL, 12345ULL, 70000ULL }) {
        const auto where =
            reinterpret_cast<std::uintptr_t>(&lines.ref(addr));
        EXPECT_LE(where % 64 + sizeof(LineRecord), 64u) << "line " << addr;
    }
}

// One line's mapping entry, inverted-hash entry, spilled counter,
// written flag and hash-store record share a record: updating any one
// of them must leave the others intact.
TEST(LineTableTest, FieldsOfOneLineNeverOverwriteEachOther)
{
    LineTable lines;
    HashStore store(lines);
    const LineAddr line = 42;
    const StrongFp fp{ 0x0123456789abcdefULL, 0xfedcba9876543210ULL };

    LineRecord &record = lines.ref(line);
    record.remap(0x1111);
    record.setHash(0x2222);
    record.markWritten();
    store.insert(0x2222, line, record);
    ASSERT_TRUE(store.addReference(record));
    store.setStrongFp(line, fp);
    record.spill(0x5555);

    const auto expectAll = [&](const char *step) {
        SCOPED_TRACE(step);
        EXPECT_TRUE(record.spilled());
        EXPECT_EQ(record.spilledCounter(), 0x5555u);
        EXPECT_TRUE(record.isRemapped());
        EXPECT_EQ(record.realAddr(), 0x1111u);
        EXPECT_TRUE(record.holdsData());
        EXPECT_EQ(record.hash(), 0x2222u);
        EXPECT_TRUE(record.written());
        EXPECT_EQ(record.reference(), 2u);
        ASSERT_NE(store.strongFpOf(line), nullptr);
        EXPECT_EQ(*store.strongFpOf(line), fp);
    };
    expectAll("all set");

    // Neighbouring records (same cache line, and the next one) are
    // independent too.
    LineRecord &before = lines.ref(line - 1);
    LineRecord &after = lines.ref(line + 1);
    before.remap(~0ULL);
    before.setHash(~0ULL);
    before.markWritten();
    before.spill(~0U);
    after.remap(~0ULL);
    after.setHash(~0ULL);
    store.insert(~0ULL, line + 1, after);
    expectAll("neighbours set");

    // Rewriting the mapping entry leaves the slot's fields alone, and
    // the other way round.
    record.remap(0x3333);
    EXPECT_EQ(record.realAddr(), 0x3333u);
    record.remap(0x1111);
    record.setHash(0x4444);
    EXPECT_EQ(record.hash(), 0x4444u);
    record.setHash(0x2222);
    expectAll("entries rewritten");

    // Reference traffic and the record's death leave the durable
    // entries and the written flag alone.
    EXPECT_FALSE(store.dropReference(0x2222, line, record));
    EXPECT_TRUE(store.dropReference(0x2222, line, record));
    EXPECT_FALSE(record.live());
    EXPECT_EQ(store.strongFpOf(line), nullptr);
    EXPECT_EQ(record.realAddr(), 0x1111u);
    EXPECT_EQ(record.hash(), 0x2222u);
    EXPECT_TRUE(record.written());

    // Clearing the entries leaves the written flag.
    record.clearRemap();
    record.clearHash();
    EXPECT_TRUE(record.written());
    EXPECT_TRUE(before.written());
    EXPECT_EQ(after.reference(), 1u);
}

TEST(LineTableTest, WalksVisitAscendingAddresses)
{
    LineTable lines;
    lines.ref(300).remap(1);
    lines.ref(7).remap(2);
    lines.ref(70000).setHash(3);
    lines.ref(9).setHash(4);

    std::vector<std::pair<LineAddr, LineAddr>> remapped;
    lines.forEachRemapped([&](LineAddr logical, LineAddr real) {
        remapped.emplace_back(logical, real);
    });
    const std::vector<std::pair<LineAddr, LineAddr>> expect_remapped = {
        { 7, 2 }, { 300, 1 },
    };
    EXPECT_EQ(remapped, expect_remapped);

    std::vector<std::pair<LineAddr, std::uint64_t>> data;
    lines.forEachDataSlot([&](LineAddr slot, std::uint64_t hash) {
        data.emplace_back(slot, hash);
    });
    const std::vector<std::pair<LineAddr, std::uint64_t>> expect_data = {
        { 9, 4 }, { 70000, 3 },
    };
    EXPECT_EQ(data, expect_data);
}

} // namespace
} // namespace dewrite
