/**
 * @file
 * Offline workload content analysis (the ground truth of Figures 2, 4,
 * 6 and 12).
 *
 * Replays a trace against a reference memory image and classifies each
 * write-back as duplicate (its content already lives somewhere in
 * memory at write time) and/or zero, independent of any deduplication
 * machinery — ground truth the dedup engine's results are compared
 * against.
 */

#ifndef DEWRITE_TRACE_WORKLOAD_STATS_HH
#define DEWRITE_TRACE_WORKLOAD_STATS_HH

#include <cstdint>
#include <functional>

#include "trace/trace.hh"

namespace dewrite {

/** Content statistics of one trace prefix. */
struct WorkloadStats
{
    std::uint64_t writes = 0;
    std::uint64_t duplicateWrites = 0; //!< Content already in memory.
    std::uint64_t zeroWrites = 0;      //!< All-zero content.
    std::uint64_t reads = 0;
    std::uint64_t sameStateAsPrev = 0; //!< Dup-state temporal locality.

    double dupFraction() const;
    double zeroFraction() const;
    /** P(write's dup-state == previous write's) — Figure 4's basis. */
    double statePersistence() const;
};

/** Receives each write, in stream order, with its duplicate verdict. */
using WriteVisitor = std::function<void(const MemEvent &, bool duplicate)>;

/**
 * Replays up to @p max_events events of @p trace, handing every write
 * and the verdict the counts use to @p on_write, if one is given.
 */
WorkloadStats measureWorkload(TraceSource &trace, std::uint64_t max_events,
                              const WriteVisitor &on_write = {});

} // namespace dewrite

#endif // DEWRITE_TRACE_WORKLOAD_STATS_HH
