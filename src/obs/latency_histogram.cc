/**
 * @file
 * LatencyHistogram implementation.
 */

#include "obs/latency_histogram.hh"

#include <algorithm>
#include <cmath>

namespace dewrite::obs {

std::uint64_t
LatencyHistogram::bucketLowerBound(std::size_t index)
{
    if (index < kSubBuckets)
        return index;
    const std::size_t msb = index / kSubBuckets + 1;
    const std::size_t sub = index % kSubBuckets;
    return (kSubBuckets + sub) << (msb - kSubBits);
}

std::uint64_t
LatencyHistogram::bucketUpperBound(std::size_t index)
{
    // The top reachable bucket (msb 63) and anything past it widen to
    // the end of the integer range: the saturating overflow region.
    constexpr std::size_t kLastReachable =
        (63 - kSubBits + 1) * kSubBuckets + (kSubBuckets - 1);
    if (index >= kLastReachable)
        return ~std::uint64_t{ 0 };
    return bucketLowerBound(index + 1) - 1;
}

std::uint64_t
LatencyHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    target = std::clamp<std::uint64_t>(target, 1, count_);

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        cumulative += buckets_[i];
        if (cumulative >= target)
            return std::min(bucketUpperBound(i), max_);
    }
    return max_; // Unreachable: cumulative == count_ at the last bucket.
}

} // namespace dewrite::obs
