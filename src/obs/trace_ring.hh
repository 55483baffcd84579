/**
 * @file
 * Per-write pipeline event tracing: a fixed-capacity ring buffer plus
 * an epoch-aggregated time series.
 *
 * Every write a controller services makes a chain of decisions —
 * prediction, duplication detection, which encryption path was
 * scheduled, where the slot counter was embedded, whether it spilled
 * to the overflow store. The WriteTracer records one WriteEvent per
 * write into a preallocated ring (zero allocation in steady state;
 * the oldest events are overwritten once the ring is full) and folds
 * every event into the current epoch aggregate, so a run yields both
 * a fine-grained tail of events (exported as a Perfetto-loadable
 * Chrome trace, see trace_export.hh) and a full-run time series of
 * write reduction and prediction accuracy per epoch.
 *
 * Cost discipline: a System without tracing enabled carries a null
 * tracer pointer, so an untraced run pays one predictable null check
 * per write and never allocates the ring.
 */

#ifndef DEWRITE_OBS_TRACE_RING_HH
#define DEWRITE_OBS_TRACE_RING_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dewrite::obs {

/** Which encryption schedule the controller chose for a write. */
enum class WritePath : std::uint8_t
{
    Direct,   //!< Detect first, encrypt only confirmed-unique lines.
    Parallel, //!< Encryption launched speculatively with detection.
};

/** Where the slot's encryption counter ended up embedded (III-C). */
enum class CounterHome : std::uint8_t
{
    None,         //!< No slot involved (duplicate of nothing / n/a).
    Mapping,      //!< Null address-mapping entry of the slot.
    InvertedHash, //!< Null inverted-hash entry of the slot.
    Overflow,     //!< Both homes occupied; spilled to the side store.
};

const char *writePathName(WritePath path);
const char *counterHomeName(CounterHome home);

/** One write's trip through the pipeline. */
struct WriteEvent
{
    std::uint64_t seq = 0;    //!< Assigned by the tracer, 0-based.
    Time issue = 0;           //!< Simulated issue time (ps).
    Time done = 0;            //!< Simulated completion time (ps).
    LineAddr addr = 0;        //!< Logical line address written.
    std::uint32_t hash = 0;   //!< Content fingerprint (low 32 bits).
    WritePath path = WritePath::Direct;
    std::int8_t predictedDup = -1; //!< -1 no prediction, else 0/1.
    bool duplicate = false;        //!< Resolved duplication state.
    bool authoritative = false;    //!< Hash store actually consulted.
    bool wroteLine = false;        //!< A data-line NVM write was issued.
    bool reencrypted = false;      //!< Optimistic ciphertext discarded.
    CounterHome home = CounterHome::None;
    std::uint8_t confirmReads = 0; //!< Confirmation lines read.
};

/** Aggregate of one epoch (a fixed budget of consecutive writes). */
struct EpochSnapshot
{
    std::uint64_t epoch = 0;  //!< 0-based epoch index.
    std::uint64_t events = 0;
    std::uint64_t duplicates = 0;  //!< Writes resolved duplicate
                                   //!< (= data-line writes eliminated).
    std::uint64_t predictions = 0; //!< Events carrying a prediction.
    std::uint64_t correctPredictions = 0;
    std::uint64_t overflows = 0;   //!< Counters homed in the spill store.

    double writeReduction() const
    {
        return events ? static_cast<double>(duplicates) /
                            static_cast<double>(events)
                      : 0.0;
    }

    double predictionAccuracy() const
    {
        return predictions ? static_cast<double>(correctPredictions) /
                                 static_cast<double>(predictions)
                           : 0.0;
    }
};

/** Tracer sizing. */
struct TraceConfig
{
    std::size_t capacity = 1 << 16;  //!< Events retained in the ring.
    std::uint64_t epochEvents = 10000; //!< Events per epoch aggregate.
};

class WriteTracer
{
  public:
    explicit WriteTracer(const TraceConfig &config = TraceConfig());

    /** Records one event; overwrites the oldest once full. */
    void record(const WriteEvent &event);

    /** Total events offered to the tracer. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events no longer in the ring (overwritten or capacity 0). */
    std::uint64_t dropped() const
    {
        return recorded_ - static_cast<std::uint64_t>(size());
    }

    /** Events currently retained. */
    std::size_t size() const { return held_; }

    std::size_t capacity() const { return ring_.size(); }

    /** @p i-th retained event, oldest first; @p i < size(). */
    const WriteEvent &event(std::size_t i) const;

    /** Completed epochs, oldest first. */
    const std::vector<EpochSnapshot> &epochs() const { return epochs_; }

    /** The in-progress (not yet full) epoch aggregate. */
    const EpochSnapshot &currentEpoch() const { return current_; }

    std::uint64_t epochEvents() const { return epochEvents_; }

  private:
    std::vector<WriteEvent> ring_;
    std::size_t head_ = 0; //!< Next write position.
    std::size_t held_ = 0;
    std::uint64_t recorded_ = 0;

    std::uint64_t epochEvents_;
    EpochSnapshot current_;
    std::vector<EpochSnapshot> epochs_;
};

} // namespace dewrite::obs

#endif // DEWRITE_OBS_TRACE_RING_HH
