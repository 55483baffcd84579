/**
 * @file
 * The on-chip metadata cache (Section III-B, Figure 5).
 *
 * Secure-NVM designs already place a write-back cache for encryption
 * counters in the memory controller; DeWrite reuses it to buffer the
 * four deduplication structures. The cache is partitioned per table:
 *
 *  - address-mapping table   (sequential, prefetched)  512 KB
 *  - inverted hash table     (sequential, prefetched)  512 KB
 *  - hash store              (hash-indexed, one line)  512 KB
 *  - free-space (FSM) bitmap (sequential, 1 bit/line)  128 KB
 *
 * Misses fetch a block of consecutive entries from the metadata region
 * of the NVM (the prefetch granularity of Figure 21) and pay a direct-
 * encryption decrypt; dirty evictions write blocks back, which is the
 * source of the paper's ~2.6% extra NVM writes.
 */

#ifndef DEWRITE_CACHE_METADATA_CACHE_HH
#define DEWRITE_CACHE_METADATA_CACHE_HH

#include <array>
#include <cstdint>

#include "cache/set_assoc_cache.hh"
#include "common/fast_div.hh"
#include "common/timing.hh"
#include "common/types.hh"
#include "obs/metric_registry.hh"

namespace dewrite {

class NvmDevice;

/** Which metadata structure an access targets. */
enum class MetadataTable : unsigned
{
    Mapping = 0,      //!< initAddr -> realAddr / colocated counter.
    InvertedHash = 1, //!< realAddr -> hash / colocated counter.
    HashStore = 2,    //!< hash -> (realAddr, refcount).
    Fsm = 3,          //!< free-line bitmap.
};

inline constexpr unsigned kNumMetadataTables = 4;

/** Outcome of one metadata access. */
struct MetadataAccessResult
{
    bool hit = false;
    Time latency = 0;        //!< Critical-path latency of the access.
    unsigned nvmReads = 0;   //!< NVM line reads issued for the fill.
    unsigned nvmWrites = 0;  //!< NVM line writes issued for writeback.
};

class MetadataCache
{
  public:
    /**
     * @param config System parameters (capacities, prefetch, timing).
     * @param device NVM device charged for fills and writebacks.
     * @param region_base First NVM line address of the metadata region;
     *        tables are laid out consecutively from here.
     */
    MetadataCache(const SystemConfig &config, NvmDevice &device,
                  LineAddr region_base);

    /**
     * Accesses entry @p index of @p table at time @p now; @p is_write
     * marks the resident block dirty.
     *
     * When @p allow_fill is false a miss does NOT fetch the block from
     * NVM — the probe returns a miss after the SRAM latency. This is
     * the hook for the paper's prediction-based NVM access (PNA)
     * scheme, which skips in-NVM hash-table queries for writes
     * predicted non-duplicate.
     */
    MetadataAccessResult access(MetadataTable table, std::uint64_t index,
                                bool is_write, Time now,
                                bool allow_fill = true);

    /**
     * Write of a brand-new entry (e.g. a hash-store insert): there is
     * nothing to read-modify, so a miss allocates the block dirty
     * *without* fetching it from NVM. Only the SRAM latency lands on
     * the critical path; a displaced dirty victim still writes back.
     */
    MetadataAccessResult insertEntry(MetadataTable table,
                                     std::uint64_t index, Time now);

    /**
     * Posted read-modify-write of an existing entry (e.g. a stale
     * hash record's reference decrement). Correctness does not depend
     * on it completing synchronously — a stale record only produces a
     * benign failed comparison — so on a miss the update is issued as
     * a background RMW instead of a foreground fill: one background
     * NVM write is charged and nothing blocks the requester.
     */
    MetadataAccessResult postUpdate(MetadataTable table,
                                    std::uint64_t index, Time now);

    /** Hit rate of one partition (Figure 21). */
    double hitRate(MetadataTable table) const;

    /** Dirty-eviction writebacks of one partition. */
    std::uint64_t dirtyEvictions(MetadataTable table) const;

    /** Total NVM line writes issued for metadata writebacks. */
    std::uint64_t nvmWritebacks() const { return writebacks_.value(); }

    /** Energy consumed: SRAM accesses plus metadata AES work. */
    Energy totalEnergy() const { return energy_; }

    /** Writes back every dirty block (models a clean shutdown/ADR). */
    void flushAll(Time now);

    /**
     * Registers cache traffic metrics under @p scope (canonically
     * "cache.metadata"): fills, writebacks, per-partition hit rates
     * and dirty evictions. Legacy names keep the historical DeWrite
     * StatSet keys (metadata_writebacks, hit_rate_mapping, ...).
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

  private:
    struct Partition
    {
        SetAssocCache directory;
        std::uint64_t entryBits;   //!< Size of one table entry in bits.
        std::uint64_t blockEntries;//!< Entries fetched per miss.
        std::uint64_t linesPerBlock;
        LineAddr base;             //!< First NVM line of this table.
        LineAddr lines;            //!< NVM lines the table spans.
        FastDiv entryDiv;          //!< index / blockEntries, exactly.
        FastDiv lineDiv;           //!< block offsets mod lines, exactly.

        Partition(std::size_t num_blocks, std::uint64_t entry_bits,
                  std::uint64_t block_entries, std::uint64_t lines_per_block,
                  LineAddr base_addr, LineAddr span)
            : directory(num_blocks), entryBits(entry_bits),
              blockEntries(block_entries), linesPerBlock(lines_per_block),
              base(base_addr), lines(span), entryDiv(block_entries),
              // The placeholder partitions are built with span 0 before
              // the real layout pass; FastDiv needs a nonzero divisor.
              lineDiv(span ? span : 1)
        {}
    };

    Partition &partition(MetadataTable table);
    const Partition &partition(MetadataTable table) const;

    /** Issues the fill reads for @p block and returns completion time. */
    Time fillBlock(Partition &part, std::uint64_t block, Time now,
                   MetadataAccessResult &result);

    /** Issues writeback writes for @p block (off the critical path). */
    void writebackBlock(Partition &part, std::uint64_t block, Time now,
                        MetadataAccessResult &result);

    const SystemConfig &config_;
    NvmDevice &device_;
    std::array<Partition, kNumMetadataTables> partitions_;

    Counter fillReads_;
    Counter writebacks_;
    Energy energy_ = 0;

  public:
    /** Total NVM lines the metadata region occupies (space overhead). */
    LineAddr regionLines() const;
};

} // namespace dewrite

#endif // DEWRITE_CACHE_METADATA_CACHE_HH
