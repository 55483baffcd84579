/**
 * @file
 * Wear tracker implementation.
 */

#include "nvm/wear_tracker.hh"

#include <algorithm>

#include "common/check.hh"

namespace dewrite {

void
WearTracker::recordWrite(LineAddr addr, std::size_t bits_written)
{
    std::uint32_t &writes = lineWrites_.ref(addr);
    linesTouched_ += writes == 0 ? 1 : 0;
    const std::uint64_t count = checkedIncrement(writes, "wear count", addr);
    maxLineWrites_ = std::max(maxLineWrites_, count);
    ++totalWrites_;
    totalBits_ += bits_written;
}

std::uint64_t
WearTracker::lineWrites(LineAddr addr) const
{
    return lineWrites_.get(addr);
}

double
WearTracker::relativeLifetime(std::uint64_t cell_endurance,
                              std::uint64_t leveled_lines) const
{
    if (totalWrites_ == 0)
        return 0.0;
    const double budget = static_cast<double>(cell_endurance) *
                          static_cast<double>(leveled_lines);
    return budget / static_cast<double>(totalWrites_);
}

} // namespace dewrite
