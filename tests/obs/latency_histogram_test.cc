/**
 * @file
 * Property tests for the log2-bucketed latency histogram, checked
 * against a sorted-vector oracle: reported percentiles must land in
 * the same bucket as the true order statistic and never undershoot
 * it, and the overflow row must saturate instead of widening past the
 * uint64 range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "obs/latency_histogram.hh"

namespace dewrite::obs {
namespace {

/** Exact order statistic percentile over the raw samples. */
std::uint64_t
oraclePercentile(std::vector<std::uint64_t> sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::uint64_t count = sorted.size();
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    return sorted[rank - 1];
}

std::vector<std::uint64_t>
sampleMix(std::uint64_t seed, std::size_t n)
{
    // Latency-shaped mix: a tight common-case band, a heavy tail, and
    // occasional full-range outliers to cross many rows.
    Rng rng(seed);
    std::vector<std::uint64_t> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double pick = rng.nextDouble();
        if (pick < 0.80)
            samples.push_back(50'000 + rng.nextBelow(20'000));
        else if (pick < 0.97)
            samples.push_back(200'000 + rng.nextBelow(4'000'000));
        else
            samples.push_back(rng.next64() >>
                              (rng.nextBelow(40) + 1));
    }
    return samples;
}

TEST(LatencyHistogram, EmptyReportsZeroes)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(LatencyHistogram, BucketIndexIsMonotoneAndBoundsRoundTrip)
{
    // Probe every row boundary and its neighbours: index is
    // non-decreasing in value, and each bucket's bounds map back to
    // the bucket itself.
    std::size_t last_index = 0;
    std::uint64_t probe = 0;
    for (int bit = 0; bit < 64; ++bit) {
        const std::uint64_t base = std::uint64_t{ 1 } << bit;
        for (const std::uint64_t v :
             { base - 1, base, base + 1, base + (base >> 1) }) {
            if (v < probe)
                continue; // wrapped or out of order probes
            probe = v;
            const std::size_t index = LatencyHistogram::bucketIndex(v);
            EXPECT_GE(index, last_index) << "value " << v;
            last_index = std::max(last_index, index);
            EXPECT_GE(v, LatencyHistogram::bucketLowerBound(index));
            EXPECT_LE(v, LatencyHistogram::bucketUpperBound(index));
        }
    }
    // Indices past bucketIndex(UINT64_MAX) are unreachable — no value
    // has a most-significant bit beyond 63 — so bounds are only
    // meaningful up to the last reachable bucket.
    const std::size_t last = LatencyHistogram::bucketIndex(
        std::numeric_limits<std::uint64_t>::max());
    for (std::size_t index = 0; index <= last; ++index) {
        const std::uint64_t lo =
            LatencyHistogram::bucketLowerBound(index);
        const std::uint64_t hi =
            LatencyHistogram::bucketUpperBound(index);
        EXPECT_LE(lo, hi) << "bucket " << index;
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), index);
        if (hi != std::numeric_limits<std::uint64_t>::max()) {
            EXPECT_EQ(LatencyHistogram::bucketIndex(hi), index);
        }
    }
}

TEST(LatencyHistogram, PercentilesMatchOracleBucket)
{
    const std::vector<std::uint64_t> samples = sampleMix(0xFEED, 20000);
    LatencyHistogram h;
    for (const std::uint64_t v : samples)
        h.record(v);

    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    EXPECT_EQ(h.count(), samples.size());
    EXPECT_EQ(h.min(), sorted.front());
    EXPECT_EQ(h.max(), sorted.back());

    for (const double q : { 0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999,
                            1.0 }) {
        const std::uint64_t truth = oraclePercentile(sorted, q);
        const std::uint64_t reported = h.percentile(q);
        // Same bucket as the true order statistic, and never an
        // undershoot (reported value is the bucket's upper bound,
        // clamped to the observed max).
        EXPECT_EQ(LatencyHistogram::bucketIndex(reported),
                  LatencyHistogram::bucketIndex(truth))
            << "q=" << q;
        EXPECT_GE(reported, truth) << "q=" << q;
        EXPECT_LE(reported, h.max()) << "q=" << q;
    }
    EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(LatencyHistogram, MeanSumAreExact)
{
    const std::vector<std::uint64_t> samples = sampleMix(0xBEEF, 5000);
    LatencyHistogram h;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : samples) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.sum(), sum);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) /
                                   static_cast<double>(samples.size()));
}

TEST(LatencyHistogram, OverflowRegionSaturates)
{
    const std::uint64_t huge =
        std::numeric_limits<std::uint64_t>::max();
    LatencyHistogram h;
    h.record(huge);
    h.record(huge - 1);
    h.record(huge / 2 + 1);

    // All three land in the top reachable buckets whose upper bound
    // saturates at UINT64_MAX rather than widening past the range.
    const std::size_t top = LatencyHistogram::bucketIndex(huge);
    EXPECT_LT(top, LatencyHistogram::kBuckets);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(top), huge);
    EXPECT_EQ(h.max(), huge);
    EXPECT_EQ(h.percentile(1.0), huge);
    // Sum wraps modulo 2^64 by design; count stays exact.
    EXPECT_EQ(h.count(), 3u);
}

TEST(LatencyHistogram, ResetRestoresEmptyState)
{
    LatencyHistogram h;
    for (const std::uint64_t v : sampleMix(7, 1000))
        h.record(v);
    ASSERT_GT(h.count(), 0u);
    h.reset();
    EXPECT_EQ(h, LatencyHistogram());
    EXPECT_EQ(h.percentile(0.99), 0u);
}

} // namespace
} // namespace dewrite::obs
