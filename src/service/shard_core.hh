/**
 * @file
 * The resumable per-shard core loop of the dedup service.
 *
 * A ShardCore replays CoreModel::runMulti for a single core, but in
 * push style: the service feeds it events in arbitrary-sized chunks
 * (whatever one ingest round routed to the shard) and the core carries
 * its clock, store queue, and half-formed write batch across feed()
 * boundaries. Because every flush is event-driven — a read, a full
 * store queue, a full batch, or finish() — and never chunk-driven, the
 * chunking is invisible to the simulation: feeding a sequence in any
 * chunk sizes produces results bit-identical to CoreModel consuming the
 * same sequence as one trace. That equivalence is what lets an N-shard
 * service run be checked against N independent System::run calls
 * (service_parity_test pins it).
 */

#ifndef DEWRITE_SERVICE_SHARD_CORE_HH
#define DEWRITE_SERVICE_SHARD_CORE_HH

#include <array>
#include <cstdint>
#include <deque>

#include "common/timing.hh"
#include "cpu/batch_former.hh"
#include "cpu/core_model.hh"
#include "trace/trace.hh"

namespace dewrite {

class ShardCore
{
  public:
    /**
     * Binds the core to its shard's @p controller (which it drives
     * exclusively) with @p timing. @p batch_capacity is normally
     * writeBatchSize(); the caller resolves it once so every shard of
     * a service run agrees even if the environment changes mid-run.
     */
    ShardCore(const TimingConfig &timing, MemController &controller,
              std::size_t batch_capacity);

    /** Feeds @p count events in canonical shard order. */
    void feed(const MemEvent *events, std::size_t count);

    /** Feeds one event. */
    void feed(const MemEvent &event);

    /**
     * Drains the staged tail and returns the core-side accounting,
     * exactly as CoreModel::run reports it (memory-side fields are
     * zero; the service completes them like System::run does). The
     * core may keep being fed afterwards; results are cumulative.
     */
    RunResult finish();

    std::uint64_t events() const { return events_; }

    /** The shard's batch former (flush-reason accounting). */
    const BatchFormer &former() const { return former_; }

  private:
    void flush(BatchFormer::FlushReason reason);

    /** By value: a ShardCore outlives whatever config built it. */
    const TimingConfig timing_;
    MemController &controller_;
    BatchFormer former_;

    /** One in-flight write; batchSlot -1 once its completion is known. */
    struct StoreEntry
    {
        Time complete = 0;
        std::int32_t batchSlot = -1;
    };

    std::deque<StoreEntry> storeQueue_;
    std::array<CtrlWriteResult, kMaxWriteBatch> responses_;

    Time now_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writesEliminated_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_SERVICE_SHARD_CORE_HH
