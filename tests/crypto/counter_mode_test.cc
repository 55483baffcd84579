/**
 * @file
 * Counter-mode engine tests: round-trip, OTP uniqueness, diffusion.
 */

#include "crypto/counter_mode.hh"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/rng.hh"

namespace dewrite {
namespace {

AesKey
testKey()
{
    AesKey key{};
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(i * 11 + 3);
    return key;
}

// PadCache returns the exact pad whether get() hits a memoized entry,
// misses, or replaces a direct-mapped conflict.
TEST(CounterModeTest, PadCacheAlwaysExact)
{
    const CounterModeEngine cme(testKey());
    PadCache cache;
    Rng rng(181);

    // 4096 keys over 128 entries: most misses evict a conflicting key.
    for (int trial = 0; trial < 2000; ++trial) {
        const LineAddr addr = rng.next64() % 512;
        const std::uint64_t counter = rng.next64() % 8;
        EXPECT_EQ(cache.get(cme, addr, counter),
                  cme.makePad(addr, counter));
    }
    EXPECT_EQ(cache.hits() + cache.misses(), 2000u);
    EXPECT_GT(cache.misses(), 128u); // More than the cold entries.

    // An immediate repeat is always a hit.
    cache.get(cme, 3, 4);
    const std::uint64_t hits = cache.hits();
    EXPECT_EQ(cache.get(cme, 3, 4), cme.makePad(3, 4));
    EXPECT_EQ(cache.hits(), hits + 1);
}

TEST(CounterModeTest, EncryptDecryptRoundTrip)
{
    const CounterModeEngine cme(testKey());
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const Line pt = Line::random(rng);
        const LineAddr addr = rng.next64() % (1u << 20);
        const std::uint64_t counter = rng.next64() % (1u << 28);
        const Line ct = cme.encryptLine(pt, addr, counter);
        EXPECT_NE(ct, pt);
        EXPECT_EQ(cme.decryptLine(ct, addr, counter), pt);
    }
}

TEST(CounterModeTest, PadDependsOnAddress)
{
    const CounterModeEngine cme(testKey());
    EXPECT_NE(cme.makePad(1, 5), cme.makePad(2, 5));
}

TEST(CounterModeTest, PadDependsOnCounter)
{
    const CounterModeEngine cme(testKey());
    EXPECT_NE(cme.makePad(1, 5), cme.makePad(1, 6));
}

TEST(CounterModeTest, PadBlocksWithinLineAreDistinct)
{
    const CounterModeEngine cme(testKey());
    const Line pad = cme.makePad(7, 9);
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t block = 0; block < kAesBlocksPerLine; ++block)
        seen.insert(pad.word64(block * 2));
    EXPECT_EQ(seen.size(), kAesBlocksPerLine);
}

TEST(CounterModeTest, OtpNeverReusedAcrossGrid)
{
    // The security invariant (Section II-B): distinct (addr, counter)
    // pairs must give distinct pads.
    const CounterModeEngine cme(testKey());
    std::unordered_set<std::uint64_t> digests;
    for (LineAddr addr = 0; addr < 64; ++addr) {
        for (std::uint64_t counter = 0; counter < 64; ++counter)
            digests.insert(cme.makePad(addr, counter).contentDigest());
    }
    EXPECT_EQ(digests.size(), 64u * 64u);
}

TEST(CounterModeTest, SamePlaintextDifferentAddressDiffers)
{
    // Why dedup cannot compare ciphertext: identical content encrypts
    // differently at different addresses.
    const CounterModeEngine cme(testKey());
    const Line pt = Line::filled(0x42);
    EXPECT_NE(cme.encryptLine(pt, 10, 1), cme.encryptLine(pt, 11, 1));
}

TEST(CounterModeTest, RewriteDiffusion)
{
    // A one-bit plaintext change plus a counter bump flips ~50% of the
    // stored bits — the motivating measurement of Figure 13.
    const CounterModeEngine cme(testKey());
    Rng rng(32);
    std::size_t flips = 0;
    const int trials = 50;
    for (int trial = 0; trial < trials; ++trial) {
        const Line pt = Line::random(rng);
        Line pt2 = pt;
        pt2.setByte(0, pt2.byte(0) ^ 1);
        const Line c1 = cme.encryptLine(pt, 5, trial * 2);
        const Line c2 = cme.encryptLine(pt2, 5, trial * 2 + 1);
        flips += c1.bitDistance(c2);
    }
    const double fraction =
        static_cast<double>(flips) / (trials * kLineBits);
    EXPECT_NEAR(fraction, 0.5, 0.02);
}

TEST(CounterModeTest, DecryptWithWrongCounterGarbles)
{
    const CounterModeEngine cme(testKey());
    Rng rng(33);
    const Line pt = Line::random(rng);
    const Line ct = cme.encryptLine(pt, 3, 17);
    EXPECT_NE(cme.decryptLine(ct, 3, 18), pt);
    EXPECT_NE(cme.decryptLine(ct, 4, 17), pt);
}

} // namespace
} // namespace dewrite
