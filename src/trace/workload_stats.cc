/**
 * @file
 * Workload measurement implementation.
 */

#include "trace/workload_stats.hh"

#include "common/dense_line_store.hh"
#include "common/flat_map.hh"

namespace dewrite {

double
WorkloadStats::dupFraction() const
{
    return writes ? static_cast<double>(duplicateWrites) / writes : 0.0;
}

double
WorkloadStats::zeroFraction() const
{
    return writes ? static_cast<double>(zeroWrites) / writes : 0.0;
}

double
WorkloadStats::statePersistence() const
{
    return writes > 1
        ? static_cast<double>(sameStateAsPrev) / (writes - 1)
        : 0.0;
}

WorkloadStats
measureWorkload(TraceSource &trace, std::uint64_t max_events,
                const WriteVisitor &on_write)
{
    WorkloadStats stats;

    // Reference image: per-address contents plus a multiset of live
    // contents so "exists anywhere in memory" is O(1).
    DenseLineStore image;
    FlatMap<Line, std::uint64_t, LineHash> live;

    bool prev_dup = false;
    MemEvent event;
    for (std::uint64_t i = 0; i < max_events && trace.next(event); ++i) {
        if (!event.isWrite) {
            ++stats.reads;
            continue;
        }

        const bool dup = live.contains(event.data);
        if (on_write)
            on_write(event, dup);
        if (stats.writes > 0 && dup == prev_dup)
            ++stats.sameStateAsPrev;
        prev_dup = dup;

        ++stats.writes;
        if (dup)
            ++stats.duplicateWrites;
        if (event.data.isZero())
            ++stats.zeroWrites;

        if (const Line *old = image.find(event.addr)) {
            std::uint64_t *count = live.find(*old);
            if (count && --*count == 0)
                live.erase(*old);
        }
        image.refForWrite(event.addr) = event.data;
        ++live[event.data];
    }
    return stats;
}

} // namespace dewrite
