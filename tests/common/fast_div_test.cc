/**
 * @file
 * FastDiv must be bit-identical to the hardware divider: the golden
 * parity fingerprints depend on cache set indices and bank decode
 * staying exactly what `%` and `/` produce.
 */

#include "common/fast_div.hh"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace dewrite {
namespace {

std::vector<std::uint64_t>
interestingValues(std::uint64_t divisor)
{
    std::vector<std::uint64_t> values = {
        0,
        1,
        2,
        63,
        64,
        65,
        (std::uint64_t{ 1 } << 32) - 1,
        std::uint64_t{ 1 } << 32,
        (std::uint64_t{ 1 } << 32) + 1,
        ~std::uint64_t{ 0 } - 1,
        ~std::uint64_t{ 0 },
    };
    // Straddle every multiple-of-divisor boundary near powers of two.
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const std::uint64_t base = std::uint64_t{ 1 } << shift;
        for (std::uint64_t delta = 0; delta <= 2; ++delta) {
            values.push_back(base + delta);
            values.push_back(base - delta);
        }
    }
    values.push_back(divisor - 1);
    values.push_back(divisor);
    values.push_back(divisor + 1);
    if (divisor > 2) {
        values.push_back(divisor * 2 - 1);
        values.push_back(divisor * 2);
    }
    return values;
}

TEST(FastDivTest, MatchesHardwareDivider)
{
    // Divisors drawn from the shapes the simulator actually builds:
    // powers of two (bank counts, FlatMap capacities), small odd
    // composites (hash-store entries per line), cache set counts from
    // capacity / associativity arithmetic, and numLines +/- 1 shapes
    // from the start-gap leveler.
    const std::uint64_t divisors[] = {
        1,    2,     3,      5,          7,          8,
        63,   64,    65,     204,        257,        1024,
        1638, 40960, 262144, 262145,     1000003,
        (std::uint64_t{ 1 } << 32) - 1, (std::uint64_t{ 1 } << 32) + 1,
        (std::uint64_t{ 1 } << 63) - 1, std::uint64_t{ 1 } << 63,
    };

    Rng rng(0xfa57d1fULL);
    for (const std::uint64_t d : divisors) {
        const FastDiv fast(d);
        EXPECT_EQ(fast.divisor(), d);
        for (const std::uint64_t n : interestingValues(d)) {
            EXPECT_EQ(fast.div(n), n / d) << "n=" << n << " d=" << d;
            EXPECT_EQ(fast.mod(n), n % d) << "n=" << n << " d=" << d;
        }
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t n = rng.next64();
            ASSERT_EQ(fast.div(n), n / d) << "n=" << n << " d=" << d;
            ASSERT_EQ(fast.mod(n), n % d) << "n=" << n << " d=" << d;
        }
    }
}

TEST(FastDivTest, DivisorOneIsIdentity)
{
    // The service's default of one shard routes every key through
    // this degenerate divisor, so it gets its own pin: div is the
    // identity and mod is always zero, including at the extremes.
    const FastDiv fast(1);
    const std::uint64_t values[] = { 0, 1, 2, 12345,
                                     std::uint64_t{ 1 } << 32,
                                     ~std::uint64_t{ 0 } };
    for (const std::uint64_t n : values) {
        EXPECT_EQ(fast.div(n), n);
        EXPECT_EQ(fast.mod(n), 0u);
    }
}

TEST(FastDivTest, ShardCountModuli)
{
    // Every legal service shard count is a FastDiv divisor on the
    // service's routing hot path; all 64 must satisfy the division
    // identity and match the hardware operators.
    Rng rng(0x5a4dc0de5ULL);
    for (std::uint64_t shards = 1; shards <= 64; ++shards) {
        const FastDiv fast(shards);
        for (const std::uint64_t n : interestingValues(shards)) {
            EXPECT_EQ(fast.div(n), n / shards) << "n=" << n;
            EXPECT_EQ(fast.mod(n), n % shards) << "n=" << n;
            EXPECT_EQ(fast.div(n) * shards + fast.mod(n), n);
        }
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t n = rng.next64();
            ASSERT_EQ(fast.div(n), n / shards) << "n=" << n;
            ASSERT_EQ(fast.mod(n), n % shards) << "n=" << n;
        }
    }
}

TEST(FastDivTest, DefaultDividesByOne)
{
    const FastDiv fast;
    EXPECT_EQ(fast.divisor(), 1u);
    EXPECT_EQ(fast.div(12345u), 12345u);
    EXPECT_EQ(fast.mod(12345u), 0u);
}

TEST(FastDivDeathTest, RejectsZeroDivisor)
{
    EXPECT_DEATH({ FastDiv fast(0); (void)fast; }, "nonzero");
}

} // namespace
} // namespace dewrite
