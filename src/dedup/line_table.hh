/**
 * @file
 * DeWrite's per-line metadata (Section III-B2), one record per line
 * address.
 *
 * Line address L names both logical line L and storage slot L, and
 * every per-line structure of the paper is indexed by it: the
 * address-mapping entry of logical line L, the inverted-hash entry of
 * slot L, the functional "ever written" flag of logical line L, and
 * the state of slot L's hash-store record (reference count, cached
 * strong-fingerprint flag). The write path touches several of them for
 * the same line, so they share one 32-byte LineRecord: one host cache
 * line per line instead of one per table (NV-Dedup's per-block
 * metadata entry, SNIPPETS.md #2; DESIGN.md §5c).
 *
 * The record is host layout only. The simulated metadata cache still
 * charges every access against the table the paper stores it in.
 *
 * Counter colocation (Section III-C): a mapping entry that is not
 * remapped and an inverted-hash entry that holds no data are "null";
 * slot L's encryption counter lives in the first null one of the two
 * (counterHome()). When both are occupied the engine spills the counter
 * into the record's own spill field (spill()), so every home of slot
 * L's counter is in the record the write path already holds.
 */

#ifndef DEWRITE_DEDUP_LINE_TABLE_HH
#define DEWRITE_DEDUP_LINE_TABLE_HH

#include <cstdint>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/paged_array.hh"
#include "common/types.hh"

namespace dewrite {

class LineRecord
{
  public:
    /** @{ Address-mapping entry of logical line L. */
    bool isRemapped() const { return remapped_; }

    /** The slot holding L's data; only valid while remapped. */
    LineAddr
    realAddr() const
    {
        if (!remapped_) [[unlikely]]
            panic("line record: realAddr of a non-remapped line");
        return mapping_;
    }

    /**
     * Remaps L to @p real_addr. A counter colocated in the entry is
     * destroyed: the caller must save it beforehand and re-home it.
     */
    void
    remap(LineAddr real_addr)
    {
        remapped_ = true;
        mapping_ = real_addr;
    }

    /** Makes the entry null again, holding counter 0. */
    void
    clearRemap()
    {
        remapped_ = false;
        mapping_ = 0;
    }
    /** @} */

    /** @{ Inverted-hash entry of slot L. */
    bool holdsData() const { return holdsData_; }

    /** Fingerprint of the data at slot L; only valid while it holds data. */
    std::uint64_t
    hash() const
    {
        if (!holdsData_) [[unlikely]]
            panic("line record: hash of an empty slot");
        return invHash_;
    }

    /**
     * Marks slot L as holding data fingerprinted by @p hash. A counter
     * colocated in the entry is destroyed, as for remap().
     */
    void
    setHash(std::uint64_t hash)
    {
        holdsData_ = true;
        invHash_ = hash;
    }

    /** Marks slot L as holding no data; the entry holds counter 0. */
    void
    clearHash()
    {
        holdsData_ = false;
        invHash_ = 0;
    }
    /** @} */

    /**
     * Where slot L's counter lives: the mapping entry when it is null,
     * else the inverted-hash entry when that is null, else nullptr (the
     * spill field).
     */
    const std::uint64_t *
    counterHome() const
    {
        if (!remapped_)
            return &mapping_;
        return holdsData_ ? nullptr : &invHash_;
    }

    std::uint64_t *
    counterHome()
    {
        return const_cast<std::uint64_t *>(
            static_cast<const LineRecord *>(this)->counterHome());
    }

    /**
     * @{ Spill field: slot L's counter while both entries are occupied.
     * The engine keeps spilled() true exactly while the counter lives
     * here; a spilled counter is a minor counter, at most 32 bits wide.
     */
    bool spilled() const { return spilled_; }
    /** The spilled counter, or 0 when nothing is spilled. */
    std::uint32_t spilledCounter() const { return spill_; }
    void
    spill(std::uint32_t counter)
    {
        spilled_ = true;
        spill_ = counter;
    }
    void
    unspill()
    {
        spilled_ = false;
        spill_ = 0;
    }
    /** @} */

    /** @{ Functional validity: logical line L was ever written. */
    bool written() const { return written_; }
    void markWritten() { written_ = true; }
    /** @} */

    /**
     * @{ Slot L's hash-store record. HashStore owns these fields: a
     * record is live iff its reference count is non-zero, and at most
     * one record per slot is live.
     */
    bool live() const { return reference_ != 0; }
    std::uint8_t reference() const { return reference_; }
    /** The record's strong fingerprint is cached (DESIGN.md §5j). */
    bool strongValid() const { return strongValid_; }
    /** @} */

  private:
    friend class HashStore;

    std::uint64_t mapping_ = 0; //!< realAddr when remapped, else counter.
    std::uint64_t invHash_ = 0; //!< Hash when holding data, else counter.
    bool remapped_ = false;
    bool holdsData_ = false;
    bool written_ = false;
    std::uint8_t reference_ = 0;
    bool strongValid_ = false;
    bool spilled_ = false;
    std::uint32_t spill_ = 0; //!< Slot L's counter while spilled_.
    std::uint8_t padding_[4] = {}; //!< Rounds the record up to 32 bytes.
};

/**
 * Records are exactly 32 bytes and pages are huge-page aligned (a page
 * of them is large enough for hugeAlloc's aligned path), so no record
 * straddles a 64-byte host cache line.
 */
static_assert(sizeof(LineRecord) == 32);
static_assert(hugeAllocEligible(
    sizeof(LineRecord) * pagedArrayDefaultEntries(sizeof(LineRecord))));

/**
 * The LineRecords of every line, direct-indexed by line address.
 * Records never move once created, so a caller may hold several at a
 * time.
 */
class LineTable
{
  public:
    /**
     * Pre-sizes the page directory for @p num_lines lines, which must
     * all be directly indexed (PagedArray's overflow map would move
     * records).
     */
    void
    reserve(std::uint64_t num_lines)
    {
        DEWRITE_CHECK(num_lines <= PagedArray<LineRecord>::kMaxDirectEntries,
                      "line table: %llu lines exceed the direct range",
                      static_cast<unsigned long long>(num_lines));
        // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
        // the hot edge is a member-name over-approximation
        records_.reserve(num_lines);
    }

    /** Line @p addr's record; untouched lines read as all-null. */
    const LineRecord &
    at(LineAddr addr) const
    {
        static constexpr LineRecord kUntouched{};
        const LineRecord *record = records_.find(addr);
        return record ? *record : kUntouched;
    }

    /** Writable record of line @p addr, allocating its page on demand. */
    LineRecord &ref(LineAddr addr) { return records_.ref(addr); }

    /** Visits every touched record as (addr, record), ascending. */
    template <typename Visitor>
    void
    forEach(Visitor &&visit) const
    {
        // PagedArray visits ascending addresses (the auditor's
        // determinism relies on this order).
        // dewrite-lint: allow(unsorted-iteration)
        records_.forEach(visit);
    }

    /** Visits every remapped entry as (logical, realAddr), ascending. */
    template <typename Visitor>
    void
    forEachRemapped(Visitor &&visit) const
    {
        forEach([&](LineAddr addr, const LineRecord &record) {
            if (record.isRemapped())
                visit(addr, record.realAddr());
        });
    }

    /** Visits every data-holding slot as (slot, hash), ascending. */
    template <typename Visitor>
    void
    forEachDataSlot(Visitor &&visit) const
    {
        forEach([&](LineAddr addr, const LineRecord &record) {
            if (record.holdsData())
                visit(addr, record.hash());
        });
    }

    /**
     * True reference count per slot, recomputed from the durable
     * entries: remapped logicals pointing at the slot (a mapping to
     * kInvalidAddr, DedupEngine::kNoData, points nowhere), plus the
     * slot's own logical when it keeps its data in place. Recovery
     * rebuilds the counts from it; the auditor checks them against it.
     */
    PagedArray<std::uint64_t>
    referenceCounts() const
    {
        PagedArray<std::uint64_t> refs;
        forEach([&](LineAddr addr, const LineRecord &record) {
            if (record.isRemapped()) {
                if (record.realAddr() != kInvalidAddr)
                    ++refs.ref(record.realAddr());
            } else if (record.holdsData() && record.written()) {
                ++refs.ref(addr);
            }
        });
        return refs;
    }

  private:
    PagedArray<LineRecord> records_;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_LINE_TABLE_HH
