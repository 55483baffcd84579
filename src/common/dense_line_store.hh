/**
 * @file
 * DenseLineStore — direct-indexed storage for 256 B line content.
 *
 * NvmDevice, TraceGen's reference image, and the cipher-image reducers
 * all map LineAddr → Line. The addresses are bounded by SystemConfig
 * (data region plus a small metadata region above it), so a hash map
 * pays mixing, probing, and per-node allocation for a key that is
 * already an array index. DenseLineStore keeps lines in lazily
 * allocated pages sized to exactly one transparent huge page (8192
 * lines = 2 MiB, allocated through hugeAlloc so random probes stay
 * TLB-resident), with the per-page written-bitmaps packed side by side
 * in one small vector: a read is two indexed loads plus one bit test,
 * a first write allocates the page once, and iteration over written
 * lines walks addresses in ascending order — sorted for free, per the
 * ordered-iteration contract of DESIGN.md §5.
 *
 * Addresses beyond kMaxDirectLines (stray or synthetic) spill into a
 * FlatMap so correctness never depends on the bound; in practice the
 * overflow stays empty.
 *
 * storeStreaming() writes a directly indexed line with SSE2
 * non-temporal stores: the simulated device seldom reads a line back
 * soon after writing it, so a plain copy's read-for-ownership of the
 * 256 B would be wasted host traffic (DESIGN.md §5c).
 */

#ifndef DEWRITE_COMMON_DENSE_LINE_STORE_HH
#define DEWRITE_COMMON_DENSE_LINE_STORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hh"
#include "common/flat_map.hh"
#include "common/huge_pages.hh"
#include "common/line.hh"
#include "common/types.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dewrite {

/**
 * Makes this thread's earlier storeStreaming() stores visible before
 * any of its later stores (SFENCE; a no-op without SSE2). Call it
 * before handing a store whose lines were streamed to another thread.
 */
inline void
fenceStreamedLines()
{
#if defined(__SSE2__)
    _mm_sfence();
#endif
}

class DenseLineStore
{
  public:
    /** Lines per page: one 2 MiB huge page of content. */
    static constexpr std::size_t kPageLines =
        kHugePageBytes / sizeof(Line);

    /** Largest directly indexed address; higher keys spill to a map. */
    static constexpr std::uint64_t kMaxDirectLines = 1ULL << 26;

    DenseLineStore() = default;

    /** Pre-sizes the page directory for addresses below @p numLines. */
    explicit DenseLineStore(std::uint64_t numLines) { reserve(numLines); }

    void
    reserve(std::uint64_t numLines)
    {
        const std::uint64_t bounded = std::min(numLines, kMaxDirectLines);
        const std::size_t dirs = static_cast<std::size_t>(
            (bounded + kPageLines - 1) / kPageLines);
        if (dirs > pages_.size()) {
            // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
            // the hot edge is a member-name over-approximation
            pages_.resize(dirs);
            // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing
            written_.resize(dirs);
        }
    }

    /** The line at @p addr, or null if it was never written. */
    const Line *
    find(LineAddr addr) const
    {
        if (addr >= kMaxDirectLines)
            return overflow_.find(addr);
        const std::size_t page = addr / kPageLines;
        if (page >= pages_.size() || !pages_[page])
            return nullptr;
        const std::size_t slot = addr % kPageLines;
        if (!isWritten(page, slot))
            return nullptr;
        return &(*pages_[page])[slot];
    }

    bool isWritten(LineAddr addr) const { return find(addr) != nullptr; }

    /**
     * Writable slot for @p addr, allocating its page on demand and
     * marking the address written. The caller overwrites the full line.
     */
    Line &
    refForWrite(LineAddr addr)
    {
        if (addr >= kMaxDirectLines) {
            auto [line, inserted] = overflow_.tryEmplace(addr);
            writtenCount_ += inserted ? 1 : 0;
            return *line;
        }
        const std::size_t page = addr / kPageLines;
        if (page >= pages_.size()) {
            // dewrite-analyze: allow(hot-path-purity) amortized page-directory growth
            pages_.resize(page + 1);
            // dewrite-analyze: allow(hot-path-purity) amortized page-directory growth
            written_.resize(page + 1);
        }
        if (!pages_[page])
            pages_[page] = makeHuge<PageLines>();
        const std::size_t slot = addr % kPageLines;
        writtenCount_ += markWritten(page, slot) ? 1 : 0;
        return (*pages_[page])[slot];
    }

    /**
     * refForWrite(@p addr) = @p line, with non-temporal stores for a
     * directly indexed line, whose 2 MiB-aligned page keeps it 16-byte
     * aligned. Overflow lines (FlatMap slots, not 16-byte aligned) and
     * builds without SSE2 take the plain copy. Another thread may read
     * a streamed line only after this one calls fenceStreamedLines().
     */
    void
    storeStreaming(LineAddr addr, const Line &line)
    {
        Line &slot = refForWrite(addr);
#if defined(__SSE2__)
        if (addr < kMaxDirectLines) {
            DEWRITE_DCHECK(reinterpret_cast<std::uintptr_t>(&slot) % 16 == 0,
                           "line %llu is not 16-byte aligned",
                           static_cast<unsigned long long>(addr));
            auto *out = reinterpret_cast<__m128i *>(slot.data());
            const auto *in = reinterpret_cast<const __m128i *>(line.data());
            for (std::size_t i = 0; i < kLineSize / sizeof(__m128i); ++i)
                _mm_stream_si128(out + i, _mm_loadu_si128(in + i));
            return;
        }
#endif
        slot = line;
    }

    /** Number of distinct addresses ever written. */
    std::size_t writtenCount() const { return writtenCount_; }

    /** Visits written lines in ascending address order. */
    template <typename Visitor>
    void
    forEachWritten(Visitor &&visit) const
    {
        for (std::size_t page = 0; page < pages_.size(); ++page) {
            if (!pages_[page])
                continue;
            const PageLines &lines = *pages_[page];
            const std::uint64_t base = page * kPageLines;
            for (std::size_t word = 0; word < kBitmapWords; ++word) {
                std::uint64_t bits = written_[page][word];
                while (bits) {
                    const int bit = std::countr_zero(bits);
                    bits &= bits - 1;
                    const std::size_t slot = word * 64 + bit;
                    visit(base + slot, lines[slot]);
                }
            }
        }
        overflow_.forEachSorted([&](LineAddr addr, const Line &line) {
            visit(addr, line);
        });
    }

    /** Addresses stored beyond the direct range (expected zero). */
    std::size_t overflowSize() const { return overflow_.size(); }

  private:
    static constexpr std::size_t kBitmapWords = kPageLines / 64;

    /** Pure line content, exactly one huge page per allocation. */
    using PageLines = std::array<Line, kPageLines>;

    /** One written-bitmap per page, packed contiguously. */
    using PageBitmap = std::array<std::uint64_t, kBitmapWords>;

    bool
    isWritten(std::size_t page, std::size_t slot) const
    {
        return (written_[page][slot / 64] >> (slot % 64)) & 1;
    }

    /** @return true iff @p slot was previously unwritten. */
    bool
    markWritten(std::size_t page, std::size_t slot)
    {
        std::uint64_t &word = written_[page][slot / 64];
        const std::uint64_t bit = 1ULL << (slot % 64);
        const bool fresh = !(word & bit);
        word |= bit;
        return fresh;
    }

    std::vector<HugeUniquePtr<PageLines>> pages_;
    std::vector<PageBitmap> written_;
    FlatMap<LineAddr, Line> overflow_;
    std::size_t writtenCount_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_COMMON_DENSE_LINE_STORE_HH
