/**
 * @file
 * The PCM main-memory device model (the NVMain substitute).
 *
 * Combines three concerns behind one interface:
 *  - functional storage: a paged, direct-indexed store of line contents
 *    (DenseLineStore), so the stack can verify end-to-end data
 *    integrity (encrypt-at-rest, dedup round-trips);
 *  - timing: per-bank busy-until scheduling with the paper's asymmetric
 *    read (75 ns) / write (300 ns) latencies;
 *  - accounting: energy (per-bit read/write), wear, and queueing stats.
 *
 * Controllers may write fewer cell-bits than a full line (DCW/FNW/DEUCE
 * write only modified bits); the caller passes the written-bit count so
 * energy and wear reflect the technique while functional content stays
 * exact.
 */

#ifndef DEWRITE_NVM_NVM_DEVICE_HH
#define DEWRITE_NVM_NVM_DEVICE_HH

#include <vector>

#include "common/dense_line_store.hh"
#include "common/line.hh"
#include "common/timing.hh"
#include "common/types.hh"
#include "nvm/nvm_address.hh"
#include "nvm/nvm_bank.hh"
#include "nvm/wear_tracker.hh"

namespace dewrite {

/**
 * Timing outcome of one device access. Carried by every access result;
 * accesses whose data the caller ignores (writes, metadata fills,
 * confirm reads that compare in place) return just this, so the hot
 * path never constructs a 256 B Line it will not read.
 */
struct NvmTiming
{
    Time start = 0;      //!< When the bank began servicing.
    Time complete = 0;   //!< When the access finished.
    Time queueDelay = 0; //!< Bank wait time (start - issue).

    /** Latency experienced by the requester: complete - issue. */
    Time latency(Time issued_at) const { return complete - issued_at; }
};

/** Result of one device read: timing plus the content returned. */
struct NvmAccess
{
    Line data;        //!< Content read (zero line if never written).
    Time start;       //!< When the bank began servicing.
    Time complete;    //!< When the access finished.
    Time queueDelay;  //!< Bank wait time (start - issue).

    /** Latency experienced by the requester: complete - issue. */
    Time latency(Time issued_at) const { return complete - issued_at; }
};

class NvmDevice
{
  public:
    explicit NvmDevice(const SystemConfig &config);

    /**
     * Reads the line at @p addr, issued at @p now.
     * Unwritten lines read as zero (fresh PCM).
     */
    NvmAccess read(LineAddr addr, Time now);

    /**
     * Identical timing, energy, wear, and counter accounting to read(),
     * but the content is not returned. For accesses that only need the
     * completion time (metadata fills, confirm reads that compare
     * through peekPtr()): charging the read without copying 256 B.
     */
    NvmTiming readTimed(LineAddr addr, Time now);

    /**
     * Writes @p data to @p addr, issued at @p now, programming
     * @p bits_written cells (pass kLineBits for a full-line write).
     * The content is streamed (DenseLineStore::storeStreaming): a
     * thread other than the writer may peek at it only after the
     * writer's fenceStreamedLines().
     */
    NvmTiming write(LineAddr addr, const Line &data, Time now,
                    std::size_t bits_written = kLineBits);

    /**
     * Background write: a lazily scheduled update (metadata writeback
     * from a battery-backed cache) that the controller slots into idle
     * bank cycles. Energy, wear, and the write count are charged, but
     * the write does not delay demand traffic; the count is reported
     * so saturation of the idle bandwidth can be audited.
     */
    void writeBackground(LineAddr addr, const Line &data,
                         std::size_t bits_written = kLineBits);

    /**
     * writeBackground() of the all-zero line, with the 256 B store
     * elided: accounting (write count, energy, wear) is identical and
     * the address is still marked written, but no content is copied.
     * The caller guarantees the stored line is already zero (fresh or
     * only ever zero-written; debug-checked). The metadata and counter
     * caches write back through this — their simulated region holds no
     * functional content, so the zero line is exact.
     */
    void writeBackgroundZero(LineAddr addr,
                             std::size_t bits_written = kLineBits);

    /** Peeks at content without timing or stats (testing/verification). */
    Line peek(LineAddr addr) const;

    /**
     * Pointer form of peek(): the stored line, or null if never
     * written. No timing, stats, or copies; the pointer is stable until
     * the next write to a new address.
     */
    const Line *peekPtr(LineAddr addr) const;

    /** True iff the line has ever been written. */
    bool isWritten(LineAddr addr) const;

    const WearTracker &wear() const { return wear_; }

    std::uint64_t numReads() const { return numReads_.value(); }
    std::uint64_t numWrites() const { return numWrites_.value(); }
    std::uint64_t numBackgroundWrites() const
    {
        return numBackgroundWrites_.value();
    }

    /** Total device energy in picojoules. */
    Energy totalEnergy() const { return energy_; }

    /** Aggregate queueing delay across all banks. */
    Time totalQueueDelay() const;

    /** Per-bank accessor for tests and detailed reporting. */
    const NvmBank &bank(unsigned index) const { return banks_[index]; }
    unsigned numBanks() const;

    /**
     * Registers device metrics (traffic, energy, queueing, wear) under
     * @p scope (canonically "device"). Metric names keep the
     * historical stats keys (num_reads, num_writes, ...).
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

  private:
    /** Row the access maps to, for row-buffer tracking. */
    std::uint64_t rowOf(const DecodedAddr &where) const;

    const SystemConfig &config_;
    AddressDecoder decoder_;
    std::vector<NvmBank> banks_;
    std::vector<std::uint64_t> openRow_; //!< Per-bank open row.
    DenseLineStore store_;
    WearTracker wear_;

    Counter numReads_;
    Counter numWrites_;
    Counter numBackgroundWrites_;
    Counter rowHits_;
    Energy energy_ = 0;

  public:
    /** Reads served from an open row buffer. */
    std::uint64_t rowBufferHits() const { return rowHits_.value(); }
};

} // namespace dewrite

#endif // DEWRITE_NVM_NVM_DEVICE_HH
