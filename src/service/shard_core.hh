/**
 * @file
 * The resumable per-shard core of the dedup service.
 *
 * A ShardCore is one CoreStep — the in-order core CoreModel::runMulti
 * drives per core — with its own batch former and its shard's
 * controller, fed in push style: the service hands it events in
 * arbitrary-sized chunks (whatever one ingest round routed to the
 * shard) and the step carries its clock, store queue, and half-formed
 * write batch across feed() boundaries. Because every flush is
 * event-driven — a read, a full store queue, a full batch, or finish()
 * — and never chunk-driven, the chunking is invisible to the
 * simulation: feeding a sequence in any chunk sizes produces results
 * bit-identical to CoreModel consuming the same sequence as one trace.
 * That equivalence is what lets an N-shard service run be checked
 * against N independent System::run calls (service_parity_test pins
 * it).
 */

#ifndef DEWRITE_SERVICE_SHARD_CORE_HH
#define DEWRITE_SERVICE_SHARD_CORE_HH

#include <cstdint>

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

    /** The step refers to this object's timing and former. */
    ShardCore(const ShardCore &) = delete;
    ShardCore &operator=(const ShardCore &) = delete;

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

    std::uint64_t events() const { return step_.counts().events; }

    /** The shard's batch former (flush-reason accounting). */
    const BatchFormer &former() const { return former_; }

  private:
    /** By value: a ShardCore outlives whatever config built it. */
    const TimingConfig timing_;
    MemController &controller_;
    BatchFormer former_;
    CoreStep step_;
};

} // namespace dewrite

#endif // DEWRITE_SERVICE_SHARD_CORE_HH
