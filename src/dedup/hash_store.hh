/**
 * @file
 * The hash table for duplication detection (Section III-B2).
 *
 * Maps the CRC-32 fingerprint of every valid line in memory to the
 * slots holding that content, oldest first. CRC-32 collides, so one
 * hash can chain several slots whose contents differ; the engine
 * confirms candidates with a read-and-compare, probing newest-first.
 *
 * Each record's state — its 8-bit reference count (how many logical
 * addresses map to the slot) and its cached strong-fingerprint flag —
 * lives in the slot's LineRecord (line_table.hh), which the engine has
 * already loaded when it updates the count, so reference updates never
 * walk a chain. Only inserts and a record's death edit one.
 *
 * Reference counts saturate at 255: a line that reaches 255 references
 * is pinned as "highly referenced" and further duplicates of it are
 * written normally rather than deduplicated, which bounds the field
 * width at the cost of a few missed eliminations. Pinned records never
 * die, so a popular content piles them up in its chain (DESIGN.md §5c
 * gives measured lengths); the newest-first probe reaches the one
 * record with spare references first.
 *
 * Storage is a FlatMap from hash to a small-buffer chain of 32-bit slot
 * ids (every slot is below LineTable's 2^26 direct range): chains of up
 * to two slots live inline in the 32-byte map slot, longer ones move
 * whole to a pooled vector. Erase preserves append order.
 */

#ifndef DEWRITE_DEDUP_HASH_STORE_HH
#define DEWRITE_DEDUP_HASH_STORE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.hh"
#include "common/paged_array.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/strong_fingerprint.hh"
#include "dedup/line_table.hh"

namespace dewrite {

/**
 * One live record as forEach() reports it, read from the slot's
 * LineRecord.
 */
struct HashEntry
{
    LineAddr realAddr;
    std::uint8_t reference;
};

/**
 * One hash's chain of slots in append order (index 0 oldest). Valid
 * until the next HashStore mutation.
 */
using ChainView = std::span<const std::uint32_t>;

class HashStore
{
  public:
    /** Saturation limit of the 8-bit reference field. */
    static constexpr std::uint8_t kMaxReference = 255;

    /** A store whose records live in @p lines. */
    explicit HashStore(LineTable &lines) : lines_(lines) {}

    /** A copy would share the original's records. */
    HashStore(const HashStore &) = delete;
    HashStore &operator=(const HashStore &) = delete;

    /**
     * Returns the chain of slots fingerprinted by @p hash (possibly
     * empty; more than one entry means a CRC collision is live).
     */
    ChainView lookup(std::uint64_t hash) const;

    /**
     * Inserts slot @p slot under @p hash with reference 1 and no cached
     * strong fingerprint. @p record is the slot's LineRecord, which must
     * not already hold a live record.
     */
    void insert(std::uint64_t hash, LineAddr slot, LineRecord &record);

    /**
     * Increments the reference of the live record in @p record.
     * @return false if the count is saturated (caller must then treat
     *         the write as non-duplicate), true otherwise.
     */
    bool addReference(LineRecord &record);

    /**
     * Decrements the reference of slot @p slot's live record
     * (@p record), chained under @p hash.
     * @return true if the count reached zero and the record was removed
     *         (the slot no longer holds live data).
     */
    bool dropReference(std::uint64_t hash, LineAddr slot,
                       LineRecord &record);

    /**
     * Audit query: the reference count of the record (@p hash, @p slot),
     * or 0 if @p slot is not live under @p hash. Walks the chain; the
     * write path reads LineRecord::reference() instead.
     */
    std::uint8_t reference(std::uint64_t hash, LineAddr slot) const;

    /**
     * Caches @p fp as the strong fingerprint of live slot @p slot's
     * content and marks it valid. Also the seeded-damage hook: the
     * auditor test writes a wrong fingerprint here to prove the
     * strong-fp-matches-stored-line invariant fires.
     */
    void setStrongFp(LineAddr slot, const StrongFp &fp);

    /**
     * The cached strong fingerprint of slot @p slot's content, or
     * nullptr when the slot has no live record or its fingerprint has
     * not been computed yet.
     */
    const StrongFp *strongFpOf(LineAddr slot) const;

    /**
     * Recovery-only: installs a record with an explicit reference count
     * (clamped to the saturation cap). The slot must hold no live
     * record.
     */
    void restore(std::uint64_t hash, LineAddr slot,
                 std::uint64_t references);

    /**
     * Forgets every record, as losing the store to a crash would: the
     * chains, the records' counts and strong-fingerprint flags, the
     * fingerprints and the saturation counter. Capacity is kept.
     */
    void clear();

    /** Pre-sizes the table for @p expected records (no mid-run rehash). */
    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::size_t expected) { chains_.reserve(expected); }

    /** Number of live records. */
    std::size_t size() const { return size_; }

    /** Number of distinct hash values with at least one record. */
    std::size_t distinctHashes() const { return chains_.size(); }

    /**
     * Live records whose hash is shared with another live record — the
     * measure behind Figure 6's collision probability.
     */
    std::size_t collidingEntries() const;

    /** Longest live collision chain. */
    std::size_t maxChainLength() const;

    /** Chains that outgrew the inline buffer (testing / inspection). */
    std::size_t spilledChains() const;

    /** Cumulative saturation refusals (for the Figure 12 miss budget). */
    std::uint64_t saturationRefusals() const
    {
        return saturationRefusals_.value();
    }

    /**
     * Visits every record in ascending hash order (entries of one hash
     * in chain order), so consumers — refcount histograms, recovery
     * audits — see a sequence independent of table layout.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visit) const
    {
        chains_.forEachSorted([&](std::uint64_t hash, const Chain &chain) {
            for (const std::uint32_t slot : view(chain))
                visit(hash, HashEntry{ slot, lines_.at(slot).reference() });
        });
    }

  private:
    /**
     * One hash's slots: held inline while they fit, otherwise all of
     * them in spills_[spillSlot]. 16 bytes, so a FlatMap slot (hash,
     * chain, used flag) is 32 and none straddles a host cache line.
     */
    struct Chain
    {
        static constexpr std::uint32_t kInline = 2;

        std::uint32_t inlineSlots[kInline];
        std::uint32_t count = 0;
        std::uint32_t spillSlot = 0; // Valid only while count > kInline.
    };
    static_assert(sizeof(Chain) == 16);

    ChainView view(const Chain &chain) const;
    void append(Chain &chain, LineAddr slot);
    void remove(Chain &chain, LineAddr slot);

    LineTable &lines_;
    FlatMap<std::uint64_t, Chain> chains_;
    std::vector<std::vector<std::uint32_t>> spills_;
    std::vector<std::uint32_t> freeSpills_;
    /** Strong fingerprints by slot; only the weak+strong tiers fill it. */
    PagedArray<StrongFp> strongFps_;
    std::size_t size_ = 0;
    Counter saturationRefusals_;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_HASH_STORE_HH
