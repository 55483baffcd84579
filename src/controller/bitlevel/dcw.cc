/**
 * @file
 * DcwReducer implementation.
 */

#include "controller/bitlevel/dcw.hh"

namespace dewrite {

namespace {
const Line kZeroLine;
}

std::size_t
DcwReducer::onWrite(LineAddr slot, const Line &new_pt, std::uint64_t counter)
{
    const Line new_ct = cme_.encryptLine(new_pt, slot, counter);
    // Unwritten cells read as zero (fresh PCM).
    const Line *image = images_.find(slot);
    const std::size_t flips = (image ? *image : kZeroLine).bitDistance(new_ct);
    images_.refForWrite(slot) = new_ct;
    return flips;
}

} // namespace dewrite
