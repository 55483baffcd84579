/**
 * @file
 * Global timing and energy model parameters (the paper's Table II plus
 * the latency/energy constants quoted in Sections III-B and IV-A).
 *
 * Latencies are modelled as constants exactly the way the paper configures
 * NVMain: NVM read 75 ns, NVM write 300 ns, AES 96 ns per 256 B line,
 * line compare 1 core cycle. The fingerprint latencies (CRC-32 15 ns,
 * MD5 312 ns, SHA-1 321 ns; Table Ia) live in the hash catalog,
 * common/hash_latency.hh. Energy: AES 5.9 nJ per 128-bit block; PCM cell
 * energies use published per-bit figures chosen so that write energy
 * dominates read energy, matching the paper's energy shapes (see
 * DESIGN.md Section 2).
 */

#ifndef DEWRITE_COMMON_TIMING_HH
#define DEWRITE_COMMON_TIMING_HH

#include <algorithm>

#include "common/types.hh"

namespace dewrite {

/**
 * Timing parameters of the simulated system. All values in picoseconds.
 */
struct TimingConfig
{
    /** Core clock period (2 GHz). */
    Time cyclePeriod = 500;

    /** PCM array read latency for one 256 B line (75 ns). */
    Time nvmRead = 75 * kNanoSecond;

    /**
     * Read served from an open row buffer (no array access). Repeated
     * reads of a hot line — e.g. dedup confirmations against a popular
     * slot — hit the row buffer, as NVMain models.
     */
    Time nvmRowHit = 15 * kNanoSecond;

    /** Consecutive same-bank lines sharing one row buffer. */
    unsigned linesPerRow = 8;

    /**
     * Bank interleaving: false = line-interleaved (consecutive lines
     * rotate across banks, NVMain's default), true = row-interleaved
     * (a row buffer's worth of lines per bank before rotating).
     */
    bool rowInterleave = false;

    /** PCM array write latency for one 256 B line (300 ns). */
    Time nvmWrite = 300 * kNanoSecond;

    /** AES pipeline latency to encrypt/decrypt one 256 B line (96 ns). */
    Time aesLine = 96 * kNanoSecond;

    /**
     * AES latency for a single 128-bit block (one pipeline pass).
     * Metadata is directly encrypted per block, so a metadata access
     * decrypts only the block holding its entry.
     */
    Time aesBlock = 6 * kNanoSecond;

    /**
     * 128-bit strong fingerprint of a 256 B line (DESIGN.md §5j): the
     * line streams through a handful of pipelined AES rounds, so the
     * latency sits between the CRC (15 ns) and a full AES line
     * encryption (96 ns, ten rounds per block).
     */
    Time strongFpLine = 40 * kNanoSecond;

    /** Byte-wise compare of two 256 B lines in logic (1 cycle). */
    Time lineCompare = 500;

    /** XOR of line with OTP — the only serial step of CME reads. */
    Time otpXor = 500;

    /** On-chip metadata/counter cache (SRAM) access latency. */
    Time metadataCacheAccess = 2 * kNanoSecond;

    /** Number of independently schedulable NVM banks (NVMain PCM: 8). */
    unsigned numBanks = 8;

    /**
     * Per-core persist write-queue depth. Writes are admitted to an
     * ADR-backed queue and drain in order; the core stalls only when
     * the queue is full, so slow writes back-pressure the core and
     * fast (eliminated) writes let it run ahead. Depth 1 models the
     * strictest flush+fence-per-store discipline.
     */
    unsigned storeQueueDepth = 8;

    /** Convert a count of cycles to picoseconds. */
    Time cycles(std::uint64_t n) const { return n * cyclePeriod; }
};

/**
 * Energy parameters. All values in picojoules.
 */
struct EnergyConfig
{
    /** AES engine energy per 128-bit block (5.9 nJ). */
    Energy aesBlock = 5900;

    /** CRC-32 engine energy per line (negligible vs AES; ~30 pJ). */
    Energy crcLine = 30;

    /**
     * Cryptographic hashing (MD5/SHA-1) energy per line — comparable
     * to running the line through an AES-class datapath.
     */
    Energy cryptoHashLine = 50000;

    /** Line comparison logic per line. */
    Energy compareLine = 20;

    /**
     * Strong-fingerprint engine energy per line — a few AES-round
     * passes over 16 blocks, about a quarter of a full line encryption
     * (EnergyConfig::aesLine() = 94.4 nJ).
     */
    Energy strongFpLine = 20000;

    /** PCM read energy per bit (5 pJ/bit -> 10.24 nJ per line). */
    Energy nvmReadPerBit = 5;

    /** Row-buffer hit energy per bit (sense amps only, 1 pJ/bit). */
    Energy nvmRowHitPerBit = 1;

    /** PCM write energy per written bit (100 pJ/bit -> 204.8 nJ/line). */
    Energy nvmWritePerBit = 100;

    /** On-chip metadata cache access energy (per access). */
    Energy metadataCacheAccess = 50;

    /** AES energy for one full 256 B line (16 blocks). */
    Energy aesLine() const { return aesBlock * kAesBlocksPerLine; }

    /** PCM read energy for one full line. */
    Energy nvmReadLine() const { return nvmReadPerBit * kLineBits; }

    /** PCM write energy for one full line. */
    Energy nvmWriteLine() const { return nvmWritePerBit * kLineBits; }
};

/**
 * How dirty metadata reaches NVM (the paper's Section V options).
 */
enum class MetadataWritePolicy
{
    /**
     * Battery-backed write-back cache (Silent Shredder): dirty blocks
     * drain lazily on eviction into idle bank slots. Cheapest traffic;
     * crash-safe only thanks to the battery.
     */
    LazyBattery,

    /**
     * Write-through (SecPM): every metadata update is propagated to
     * NVM immediately via the write queue. No loss window and no
     * battery, at the cost of one background NVM write per update.
     */
    WriteThrough,
};

/**
 * Capacity and structural parameters.
 */
struct MemoryConfig
{
    /**
     * Number of addressable 256 B lines. The paper simulates a 16 GB
     * module; workloads touch a working set far below capacity, so the
     * default here (1 GB worth of lines) keeps table footprints small
     * without changing behaviour. All structures scale with this value.
     */
    std::uint64_t numLines = (1ULL << 30) / kLineSize;

    /** Metadata cache capacities, in bytes (Section IV-E2). */
    std::size_t hashCacheBytes = 512 * 1024;
    std::size_t mappingCacheBytes = 512 * 1024;
    std::size_t invHashCacheBytes = 512 * 1024;
    std::size_t fsmCacheBytes = 128 * 1024;

    /** Counter cache of the non-dedup secure baseline (2 MB). */
    std::size_t counterCacheBytes = 2 * 1024 * 1024;

    /**
     * Prefetch granularity for the sequential metadata tables (entries
     * fetched per NVM access); the paper settles on 256 (Fig. 21).
     */
    unsigned prefetchEntries = 256;

    /**
     * Fingerprint width stored per hash-table entry: 32 for DeWrite's
     * CRC-32; set to 128 (MD5) or 160 (SHA-1) when configuring the
     * traditional cryptographic-fingerprint comparator, so the space
     * and cache models account for the fatter entries.
     */
    unsigned hashDigestBits = 32;

    /** Metadata durability policy (Section V). */
    MetadataWritePolicy metadataWritePolicy =
        MetadataWritePolicy::LazyBattery;

    /**
     * Expected distinct lines a workload touches, used purely as a
     * reserve() sizing hint so the hashed hot-path tables (hash store,
     * counter overflow, trace image) never rehash mid-run. Behaviour is
     * identical whatever the value; 0 derives a default from numLines.
     */
    std::uint64_t workingSetHintLines = 0;

    /** The sizing hint, with the numLines-derived default applied. */
    std::uint64_t
    workingSetHint() const
    {
        return workingSetHintLines ? workingSetHintLines
                                   : std::max<std::uint64_t>(
                                         numLines / 16, 4096);
    }
};

/** Bundle of every model parameter, passed to controllers and devices. */
struct SystemConfig
{
    TimingConfig timing;
    EnergyConfig energy;
    MemoryConfig memory;

    /**
     * Cores driving the shared memory controller (Table II: 4). Bank
     * contention — and with it the paper's read-speedup effect — only
     * exists when several cores' requests overlap in time.
     */
    unsigned numCores = 4;
};

/**
 * Cross-checks that a configuration is self-consistent; calls fatal()
 * on user-level parameter errors. Invoked when a System is built.
 */
void validateConfig(const SystemConfig &config);

} // namespace dewrite

#endif // DEWRITE_COMMON_TIMING_HH
