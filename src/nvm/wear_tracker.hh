/**
 * @file
 * Per-line wear tracking and endurance projection.
 *
 * PCM cells endure ~1e7–1e8 writes; DeWrite's write elimination extends
 * lifetime proportionally. The tracker records per-line write counts
 * (sparse: only lines ever written; 32 bits each, which no cell's
 * endurance approaches, and a count that would wrap panics) and
 * projects module lifetime under an idealized wear-leveling assumption,
 * which is the standard way the endurance literature normalizes
 * comparisons.
 */

#ifndef DEWRITE_NVM_WEAR_TRACKER_HH
#define DEWRITE_NVM_WEAR_TRACKER_HH

#include <cstdint>

#include "common/paged_array.hh"
#include "common/types.hh"
#include "obs/metric_registry.hh"

namespace dewrite {

class WearTracker
{
  public:
    /** Pre-sizes the per-line count array for @p num_lines addresses. */
    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::uint64_t num_lines) { lineWrites_.reserve(num_lines); }

    /** Records one write of @p bits_written cell-bits at @p addr. */
    void recordWrite(LineAddr addr, std::size_t bits_written);

    /** Total line writes recorded. */
    std::uint64_t totalWrites() const { return totalWrites_; }

    /** Total cell-bit writes recorded. */
    std::uint64_t totalBitsWritten() const { return totalBits_; }

    /** Highest per-line write count seen. */
    std::uint64_t maxLineWrites() const { return maxLineWrites_; }

    /** Number of distinct lines ever written. */
    std::size_t linesTouched() const { return linesTouched_; }

    /** Writes recorded against one line. */
    std::uint64_t lineWrites(LineAddr addr) const;

    /**
     * Projected lifetime in arbitrary write-traffic units: with perfect
     * wear leveling over @p leveled_lines lines of @p cell_endurance
     * writes each, lifetime is inversely proportional to write traffic.
     * Two trackers' projections are meaningfully compared as ratios.
     */
    double relativeLifetime(std::uint64_t cell_endurance,
                            std::uint64_t leveled_lines) const;

    /** Registers wear metrics under @p scope (canonically
     * "device.wear"). */
    void registerMetrics(obs::MetricRegistry::Scope scope) const
    {
        scope.gauge("total_writes",
                    [this] {
                        return static_cast<double>(totalWrites());
                    },
                    "line writes charged to cells");
        scope.gauge("total_bits_written",
                    [this] {
                        return static_cast<double>(totalBitsWritten());
                    },
                    "cell-bit writes charged");
        scope.gauge("max_line_writes",
                    [this] {
                        return static_cast<double>(maxLineWrites());
                    },
                    "hottest line's write count");
        scope.gauge("lines_touched",
                    [this] {
                        return static_cast<double>(linesTouched());
                    },
                    "distinct lines ever written");
    }

  private:
    PagedArray<std::uint32_t> lineWrites_;
    std::size_t linesTouched_ = 0;
    std::uint64_t totalWrites_ = 0;
    std::uint64_t totalBits_ = 0;
    std::uint64_t maxLineWrites_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_NVM_WEAR_TRACKER_HH
