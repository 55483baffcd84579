/**
 * @file
 * SkewMonitor implementation.
 */

#include "service/skew_monitor.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"

namespace dewrite {

SkewMonitor::SkewMonitor(std::size_t shards) : total_(shards, 0)
{
    DEWRITE_CHECK(shards >= 1, "skew monitor needs at least one shard");
}

SkewMonitor::Stats
SkewMonitor::statsOf(std::span<const std::uint64_t> counts)
{
    Stats stats;
    if (counts.empty())
        return stats;
    stats.min = ~std::uint64_t{ 0 };
    double sum = 0.0;
    for (const std::uint64_t c : counts) {
        stats.min = std::min(stats.min, c);
        stats.max = std::max(stats.max, c);
        sum += static_cast<double>(c);
    }
    stats.mean = sum / static_cast<double>(counts.size());
    if (stats.mean > 0.0) {
        double var = 0.0;
        for (const std::uint64_t c : counts) {
            const double d = static_cast<double>(c) - stats.mean;
            var += d * d;
        }
        var /= static_cast<double>(counts.size());
        stats.cv = std::sqrt(var) / stats.mean;
    }
    return stats;
}

void
SkewMonitor::noteRound(std::span<const std::uint64_t> events)
{
    DEWRITE_CHECK(events.size() == total_.size(),
                  "skew round over %zu shards, monitor has %zu",
                  events.size(), total_.size());
    for (std::size_t k = 0; k < events.size(); ++k)
        total_[k] += events[k];
    lastRound_ = statsOf(events);
    ++rounds_;
}

} // namespace dewrite
