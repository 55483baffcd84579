/**
 * @file
 * Fixed-size log2-bucketed latency histogram (HDR-style).
 *
 * The MemController base class records every serviced write and read
 * latency here and exports the p50/p99/p99.9/max quantiles under
 * "controller.{write,read}_latency.", for every scheme alike. That
 * needs percentiles over millions of per-request latencies without
 * allocating on the hot path or keeping raw samples. A
 * LatencyHistogram covers the full uint64 range with 64 power-of-two
 * rows of 4 linear sub-buckets each (256 counters, ~2 KiB, plus exact
 * count/min/max/sum), so record() is a handful of ALU ops and one
 * increment, and relative quantile error is bounded by the sub-bucket
 * resolution (< 25%, typically ~12%).
 *
 * All state is host-side observability, a plain value type; nothing
 * here may feed back into simulated results.
 */

#ifndef DEWRITE_OBS_LATENCY_HISTOGRAM_HH
#define DEWRITE_OBS_LATENCY_HISTOGRAM_HH

#include <array>
#include <bit>
#include <cstdint>

namespace dewrite::obs {

class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2 bits → 4 linear buckets per row. */
    static constexpr unsigned kSubBits = 2;
    static constexpr std::size_t kSubBuckets = std::size_t{ 1 }
                                               << kSubBits;
    /** One row per possible most-significant-bit position. */
    static constexpr std::size_t kRows = 64;
    static constexpr std::size_t kBuckets = kRows * kSubBuckets;

    /** Records one sample. Allocation-free; any uint64 is in range. */
    // dewrite-lint: hot
    void
    record(std::uint64_t value)
    {
        ++buckets_[bucketIndex(value)];
        ++count_;
        sum_ += value;
        if (value > max_)
            max_ = value;
        if (value < min_)
            min_ = value;
    }

    void reset() { *this = LatencyHistogram(); }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                static_cast<double>(count_)
                      : 0.0;
    }

    std::uint64_t bucket(std::size_t index) const
    {
        return buckets_[index];
    }

    /** Bucket a value lands in. Total order: higher value, same-or-
     * higher index. */
    static std::size_t
    bucketIndex(std::uint64_t value)
    {
        if (value < kSubBuckets)
            return static_cast<std::size_t>(value);
        const unsigned msb =
            63u - static_cast<unsigned>(std::countl_zero(value));
        const unsigned shift = msb - kSubBits;
        const std::uint64_t top = value >> shift; // [4, 8)
        return (static_cast<std::size_t>(msb) - kSubBits + 1) *
                   kSubBuckets +
               static_cast<std::size_t>(top - kSubBuckets);
    }

    /** Smallest value mapping to @p index. */
    static std::uint64_t bucketLowerBound(std::size_t index);

    /**
     * Largest value mapping to @p index. The top occupied row cannot
     * be widened past the integer range, so the final buckets saturate
     * at UINT64_MAX — the overflow region every huge sample collapses
     * into (tested explicitly).
     */
    static std::uint64_t bucketUpperBound(std::size_t index);

    /**
     * Value at quantile @p q in [0, 1]: the upper bound of the bucket
     * holding the ceil(q * count)-th smallest sample, clamped to the
     * exact observed maximum (so percentile(1.0) == max()). Returns 0
     * on an empty histogram. Reported values land in the same bucket
     * as the true order statistic — the oracle property tests pin it.
     */
    std::uint64_t percentile(double q) const;

    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p99() const { return percentile(0.99); }
    std::uint64_t p999() const { return percentile(0.999); }

    /** Bucket-exact equality (distribution, count, sum, extrema). */
    bool operator==(const LatencyHistogram &other) const = default;

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{ 0 };
};

} // namespace dewrite::obs

#endif // DEWRITE_OBS_LATENCY_HISTOGRAM_HH
