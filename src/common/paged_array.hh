/**
 * @file
 * PagedArray / DenseAddrSet — direct-indexed per-line state.
 *
 * Most per-line simulator state (mapping entries, inverted-hash
 * entries, wear counts, written flags, encryption counters) is keyed by
 * a LineAddr that SystemConfig bounds: data lines live below
 * memory.numLines and the metadata region occupies a small multiple
 * above it. Hashing such keys is wasted work — the address *is* the
 * index. PagedArray stores entries in lazily allocated fixed-size pages
 * behind a flat page directory, so a lookup is two shifts and two
 * indexed loads, untouched regions cost nothing, and iteration walks
 * addresses in ascending order (the ordered-iteration contract of
 * DESIGN.md §5) with no sort step.
 *
 * Addresses beyond a sanity bound (kMaxDirectEntries) fall back to a
 * FlatMap overflow so a stray huge address can never balloon the
 * directory; in practice the overflow stays empty.
 */

#ifndef DEWRITE_COMMON_PAGED_ARRAY_HH
#define DEWRITE_COMMON_PAGED_ARRAY_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/huge_pages.hh"

namespace dewrite {

/**
 * Default entries per page: sized so one page spans one transparent
 * huge page (see huge_pages.hh), clamped to at least 4096 entries so
 * arrays of large T still amortize the directory indirection.
 */
constexpr std::size_t
pagedArrayDefaultEntries(std::size_t entry_bytes)
{
    const std::size_t per_huge_page =
        std::bit_floor(kHugePageBytes / entry_bytes);
    return per_huge_page < 4096 ? 4096 : per_huge_page;
}

template <typename T,
          std::size_t kPageEntries = pagedArrayDefaultEntries(sizeof(T))>
class PagedArray
{
    static_assert((kPageEntries & (kPageEntries - 1)) == 0,
                  "page size must be a power of two");

  public:
    /** Largest directly indexed address; higher keys spill to a map. */
    static constexpr std::uint64_t kMaxDirectEntries = 1ULL << 26;

    PagedArray() = default;

    /** Pre-sizes the page directory for addresses below @p capacity. */
    explicit PagedArray(std::uint64_t capacity) { reserve(capacity); }

    void
    reserve(std::uint64_t capacity)
    {
        const std::uint64_t bounded =
            std::min(capacity, kMaxDirectEntries);
        const std::size_t dirs =
            static_cast<std::size_t>((bounded + kPageEntries - 1) /
                                     kPageEntries);
        if (dirs > pages_.size())
            // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
            // the hot edge is a member-name over-approximation
            pages_.resize(dirs);
    }

    /** Entry at @p index, or null if its page was never touched. */
    const T *
    find(std::uint64_t index) const
    {
        if (index >= kMaxDirectEntries)
            return overflow_.find(index);
        const std::size_t page = index / kPageEntries;
        if (page >= pages_.size() || !pages_[page])
            return nullptr;
        return &(*pages_[page])[index % kPageEntries];
    }

    T *
    find(std::uint64_t index)
    {
        return const_cast<T *>(
            static_cast<const PagedArray *>(this)->find(index));
    }

    /** Entry value at @p index; untouched entries read as T{}. */
    T
    get(std::uint64_t index) const
    {
        const T *entry = find(index);
        return entry ? *entry : T{};
    }

    /** Writable entry at @p index, allocating its page on demand. */
    T &
    ref(std::uint64_t index)
    {
        if (index >= kMaxDirectEntries)
            return overflow_[index];
        const std::size_t page = index / kPageEntries;
        if (page >= pages_.size())
            // dewrite-analyze: allow(hot-path-purity) amortized page-directory growth
            pages_.resize(page + 1);
        if (!pages_[page])
            pages_[page] = makeHuge<Page>();
        return (*pages_[page])[index % kPageEntries];
    }

    /**
     * Visits every entry of every allocated page — including entries
     * still holding T{} — in ascending index order, then the overflow
     * in ascending key order. Callers filter on their own
     * validity flag, exactly as they would for absent map keys.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visit) const
    {
        for (std::size_t page = 0; page < pages_.size(); ++page) {
            if (!pages_[page])
                continue;
            const std::uint64_t base = page * kPageEntries;
            for (std::size_t i = 0; i < kPageEntries; ++i)
                visit(base + i, (*pages_[page])[i]);
        }
        overflow_.forEachSorted(
            [&](std::uint64_t index, const T &entry) {
                visit(index, entry);
            });
    }

    /** Entries living beyond the direct range (expected zero). */
    std::size_t overflowSize() const { return overflow_.size(); }

  private:
    using Page = std::array<T, kPageEntries>;

    std::vector<HugeUniquePtr<Page>> pages_;
    FlatMap<std::uint64_t, T> overflow_;
};

/**
 * A set of line addresses over PagedArray storage: one byte per
 * possible member, so insert/contains/erase are direct loads with no
 * hashing and no allocation after the first touch of a page.
 */
class DenseAddrSet
{
  public:
    DenseAddrSet() = default;
    explicit DenseAddrSet(std::uint64_t capacity) : flags_(capacity) {}

    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::uint64_t capacity) { flags_.reserve(capacity); }

    bool
    contains(std::uint64_t index) const
    {
        const std::uint8_t *flag = flags_.find(index);
        return flag && *flag;
    }

    /** @return true iff @p index was newly added. */
    bool
    insert(std::uint64_t index)
    {
        std::uint8_t &flag = flags_.ref(index);
        if (flag)
            return false;
        flag = 1;
        ++size_;
        return true;
    }

    /** @return true iff @p index was present. */
    bool
    erase(std::uint64_t index)
    {
        std::uint8_t *flag = flags_.find(index);
        if (!flag || !*flag)
            return false;
        *flag = 0;
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }

    /** Visits members in ascending order. */
    template <typename Visitor>
    void
    forEachSorted(Visitor &&visit) const
    {
        // dewrite-lint: allow(unsorted-iteration) index-ascending
        flags_.forEach([&](std::uint64_t index, std::uint8_t flag) {
            if (flag)
                visit(index);
        });
    }

  private:
    PagedArray<std::uint8_t> flags_;
    std::size_t size_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_COMMON_PAGED_ARRAY_HH
