/**
 * @file
 * SkewMonitor: how evenly the router spreads a service run's events
 * over its shards.
 *
 * After every drain round the service hands the monitor each shard's
 * event count for that round. The monitor keeps the last round's
 * min/mean/max and coefficient of variation, plus per-shard totals for
 * the same statistics over the whole run. The service registry exports
 * both under "service.skew."; the CV is the trigger input a shard
 * rebalancer would read.
 */

#ifndef DEWRITE_SERVICE_SKEW_MONITOR_HH
#define DEWRITE_SERVICE_SKEW_MONITOR_HH

#include <cstdint>
#include <span>
#include <vector>

namespace dewrite {

class SkewMonitor
{
  public:
    /** Dispersion of one group of per-shard event counts. */
    struct Stats
    {
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        double mean = 0.0;
        double cv = 0.0; //!< stddev / mean (0 when mean is 0).
    };

    explicit SkewMonitor(std::size_t shards);

    /**
     * Accounts one completed drain round's per-shard event counts;
     * @p events must hold one count per shard. Allocation-free.
     */
    void noteRound(std::span<const std::uint64_t> events);

    std::uint64_t rounds() const { return rounds_; }

    /** Last completed round (the live gauges). */
    const Stats &lastRound() const { return lastRound_; }

    /** Cumulative per-shard totals since construction. */
    Stats totalStats() const { return statsOf(total_); }

  private:
    static Stats statsOf(std::span<const std::uint64_t> counts);

    std::vector<std::uint64_t> total_;
    Stats lastRound_;
    std::uint64_t rounds_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_SERVICE_SKEW_MONITOR_HH
