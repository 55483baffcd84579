/**
 * @file
 * The memory-controller interface every scheme implements.
 *
 * A controller owns a write/read policy (encryption, deduplication,
 * bit-level reduction) over a shared NvmDevice. All latencies are
 * absolute-time based: the caller supplies the issue time and receives
 * the request latency, which lets the trace-driven core model apply
 * persistent-memory semantics (writes stall the core until complete).
 */

#ifndef DEWRITE_CONTROLLER_MEM_CONTROLLER_HH
#define DEWRITE_CONTROLLER_MEM_CONTROLLER_HH

#include <string>

#include "common/line.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/latency_histogram.hh"
#include "obs/metric_registry.hh"

namespace dewrite {

/** Outcome of a write request. */
struct CtrlWriteResult
{
    Time latency = 0;        //!< Issue-to-complete time.
    bool eliminated = false; //!< No data-line NVM write was needed.
};

/** Outcome of a read request. */
struct CtrlReadResult
{
    Line data;
    Time latency = 0;
    bool valid = false; //!< The line had been written before.
};

/** Upper bound on writeBatch() group size (= DEWRITE_BATCH's max). */
inline constexpr std::size_t kMaxWriteBatch = 64;

/**
 * One member of a batched write hand-off (see CoreModel's batch
 * former). @p data points into the former's staging buffer and is
 * valid for the duration of the writeBatch() call.
 */
struct CtrlWriteRequest
{
    LineAddr addr = 0;
    const Line *data = nullptr;
    Time now = 0; //!< Issue time, exactly as write() would receive it.
};

class MemController
{
  public:
    virtual ~MemController() = default;

    /** Writes back one cache line at @p now. */
    virtual CtrlWriteResult write(LineAddr addr, const Line &data,
                                  Time now) = 0;

    /** Fetches one cache line at @p now. */
    virtual CtrlReadResult read(LineAddr addr, Time now) = 0;

    /**
     * read() for callers that consume only the timing: all simulated
     * effects (latency, energy, stats) are identical to read(), but
     * the result's data member may be left zero. The in-order core
     * uses this — it discards load data — so schemes can skip the
     * host-side pad generation and line XOR of the decrypt.
     */
    virtual CtrlReadResult readTiming(LineAddr addr, Time now)
    {
        return read(addr, now);
    }

    /**
     * Writes a group of @p count lines (the batch former's flush).
     * The contract is strict equivalence: results, all simulated
     * state, and all metrics are identical to calling write() per
     * request in array order, which is exactly what this does. No
     * scheme overrides it; wrappers may, to observe the hand-off.
     */
    virtual void writeBatch(const CtrlWriteRequest *requests,
                            CtrlWriteResult *results, std::size_t count);

    /** Scheme name for reports. */
    virtual std::string name() const = 0;

    /**
     * Energy consumed by controller-side machinery (AES circuit, dedup
     * logic, metadata caches) — the NVM device's own energy is
     * accounted by the device.
     */
    virtual Energy controllerEnergy() const = 0;

    /**
     * Registers every metric the controller exposes — the common
     * request accounting under "controller.*" plus whatever the scheme
     * adds via registerSchemeMetrics() — into @p registry. The System
     * calls this once at wiring time; harnesses may also call it on a
     * scratch registry to snapshot a controller in isolation.
     */
    void registerMetrics(obs::MetricRegistry &registry) const;

    /**
     * Legacy flat view: fills @p stats with the historical per-scheme
     * StatSet keys (a registry-backed compatibility shim — same names
     * and values the schemes used to hand-write).
     */
    void fillStats(StatSet &stats) const;

    /** @{ Aggregate request accounting common to all schemes. */
    std::uint64_t writesEliminated() const
    {
        return writesEliminated_.value();
    }
    double avgWriteLatency() const { return writeLatency_.mean(); }
    double avgReadLatency() const { return readLatency_.mean(); }

    /** Cell bits programmed by data writes (Figure 13 numerator). */
    std::uint64_t dataBitsProgrammed() const
    {
        return dataBitsProgrammed_.value();
    }
    /** @} */

  protected:
    /**
     * Scheme-specific additions to registerMetrics(): subclasses
     * register their own counters/gauges (and legacy StatSet aliases)
     * under nested scopes. The default registers nothing.
     */
    virtual void registerSchemeMetrics(obs::MetricRegistry &registry) const;

    /** Subclasses record every request through these. */
    void
    noteWrite(Time latency, bool eliminated, std::size_t bits_programmed)
    {
        writeRequests_.increment();
        if (eliminated)
            writesEliminated_.increment();
        writeLatency_.record(latency);
        dataBitsProgrammed_.increment(bits_programmed);
    }

    void
    noteRead(Time latency)
    {
        readRequests_.increment();
        readLatency_.record(latency);
    }

  private:
    Counter writeRequests_;
    Counter readRequests_;
    Counter writesEliminated_;
    Counter dataBitsProgrammed_;
    /** Full latency distributions, recorded here for every scheme so
     * each exports the same "controller.{write,read}_latency*" mean
     * and quantile paths and registry snapshots stay scheme-comparable.
     * The means are exact: sums of whole picoseconds below 2^53 ps
     * convert to double without rounding. */
    obs::LatencyHistogram writeLatency_;
    obs::LatencyHistogram readLatency_;
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_MEM_CONTROLLER_HH
