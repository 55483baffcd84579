/**
 * @file
 * Rng unit tests: determinism, sampler sanity and a known-answer
 * sequence.
 */

#include "common/rng.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dewrite {
namespace {

TEST(RngTest, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(RngTest, NextBelowCoversRange)
{
    Rng rng(8);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int bucket = 0; bucket < 8; ++bucket)
        EXPECT_GT(seen[bucket], 700) << "bucket " << bucket;
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(10);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect)
{
    Rng rng(12);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextExponential(100.0));
    // Integer truncation shifts the mean down by ~0.5.
    EXPECT_NEAR(sum / n, 99.5, 3.0);
}

TEST(RngTest, ZipfStaysInRange)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextZipf(100, 0.8), 100u);
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks)
{
    Rng rng(14);
    const int n = 50000;
    int low = 0;
    for (int i = 0; i < n; ++i)
        low += rng.nextZipf(1000, 0.9) < 100;
    // Under a uniform law 'low' would be ~10%; Zipf concentrates mass.
    EXPECT_GT(low, n / 3);
}

TEST(RngTest, KnownAnswerSequence)
{
    // Recorded from this implementation with one fixed seed. The calls
    // that draw nothing (chance at 0 and 1, a one-element Zipf) sit
    // between the others, so a change to any sampler's arithmetic or to
    // how many next64() draws it takes moves a later value.
    Rng rng(20181020);
    for (std::uint64_t expected :
         { 0xd5aec93ff03c4ea0ULL, 0x09b936ecf267e403ULL,
           0x14a7a489e11d71b8ULL, 0x462377ac51b98bc3ULL })
        EXPECT_EQ(rng.next64(), expected);
    for (std::uint64_t expected : { 242, 687, 321, 21, 484, 372 })
        EXPECT_EQ(rng.nextBelow(1000), expected);
    for (double expected : { 0x1.89d3d136c6531p-1, 0x1.22f6e9ad3e4dfp-1,
                             0x1.6dd4388b73fecp-2, 0x1.24bae6c0a4ae9p-1 })
        EXPECT_EQ(rng.nextDouble(), expected);
    std::uint32_t chances = 0;
    for (int i = 0; i < 32; ++i)
        chances |= std::uint32_t{ rng.chance(0.3) } << i;
    EXPECT_EQ(chances, 0xa3028b21u);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    for (std::uint64_t expected : { 21, 145, 82, 26 })
        EXPECT_EQ(rng.nextExponential(100.0), expected);
    EXPECT_EQ(rng.nextZipf(1, 0.7), 0u);
    for (std::uint64_t expected : { 831, 371, 20, 232, 602, 29 })
        EXPECT_EQ(rng.nextZipf(1000, 0.7), expected);
    std::uint64_t n = 100;
    for (std::uint64_t expected : { 60, 50, 92, 68, 95, 32 })
        EXPECT_EQ(rng.nextZipf(n++, 0.35), expected);
    for (std::uint64_t expected : { 285, 384, 0, 0, 621, 176 })
        EXPECT_EQ(rng.nextZipf(1000, 1.0), expected);
    EXPECT_EQ(rng.next64(), 0xdc9459ab3855263aULL);
}

TEST(RngTest, ZipfDegenerateBounds)
{
    Rng rng(15);
    EXPECT_EQ(rng.nextZipf(1, 0.9), 0u);
    EXPECT_EQ(rng.nextZipf(0, 0.9), 0u);
}

} // namespace
} // namespace dewrite
