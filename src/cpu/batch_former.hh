/**
 * @file
 * The write-batch former shared by every trace-driven core loop.
 *
 * A former stages consecutive store-queue writes and hands them to
 * MemController::writeBatch() as one group (DESIGN.md §5f). It owns
 * the staging slots (fixed capacity, no allocation after construction)
 * and the flush-reason accounting: every non-empty flush is attributed
 * to the event that forced it (a read that must observe the staged
 * writes, a full store queue, a full batch, or the end of the trace),
 * so the registry exposes *why* batches break up, not just cycle
 * totals.
 *
 * The in-order core step (CoreStep) stages into a former: one former
 * shared by every core of CoreModel::runMulti, or a ShardCore's own.
 * Each staged write remembers its core, and a flush hands every
 * write's completion back to that core, whichever core's event forced
 * the flush.
 */

#ifndef DEWRITE_CPU_BATCH_FORMER_HH
#define DEWRITE_CPU_BATCH_FORMER_HH

#include <array>
#include <cstddef>

#include "common/stats.hh"
#include "common/types.hh"
#include "controller/mem_controller.hh"
#include "obs/metric_registry.hh"

namespace dewrite {

class CoreStep;

class BatchFormer
{
  public:
    /** What event forced a (non-empty) flush. */
    enum class FlushReason
    {
        Read,      //!< A read must observe every staged write first.
        QueueFull, //!< The store queue reached its drain threshold.
        BatchFull, //!< The batch reached DEWRITE_BATCH staged writes.
        TraceEnd,  //!< End of trace / end of run drains the tail.
    };

    /**
     * Arms the former for a run with @p capacity staged writes per
     * batch (1..kMaxWriteBatch; normally writeBatchSize()). Discards
     * anything staged; counters persist across runs.
     */
    void reset(std::size_t capacity);

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }

    /**
     * Stages one write of @p core (copied — the trace buffer may be
     * overwritten before the flush). The former must not be full.
     */
    void stage(CoreStep &core, LineAddr addr, const Line &data, Time now);

    /**
     * Hands every staged write to @p controller.writeBatch() in stage
     * order — the strict-equivalence batch contract — then resolves
     * each write's completion (issue time plus latency) on the core
     * that staged it, and counts the flush under @p reason. An empty
     * former touches neither the controller nor the counters.
     */
    void flush(MemController &controller, FlushReason reason);

    /** @{ Flush-reason accounting (non-empty flushes only). */
    std::uint64_t flushesOnRead() const { return flushRead_.value(); }
    std::uint64_t flushesOnQueueFull() const
    {
        return flushQueueFull_.value();
    }
    std::uint64_t flushesOnBatchFull() const
    {
        return flushBatchFull_.value();
    }
    std::uint64_t flushesOnTraceEnd() const
    {
        return flushTraceEnd_.value();
    }
    std::uint64_t flushes() const;
    std::uint64_t writesStaged() const { return writesStaged_.value(); }
    /** @} */

    /**
     * Registers the flush-reason counters under @p scope (canonically
     * "core.batch"). Host-side accounting only: none of these carry
     * legacy StatSet names, so result signatures are untouched.
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

  private:
    struct Slot
    {
        CoreStep *core = nullptr;
        LineAddr addr = 0;
        Time now = 0;
        Line data;
    };

    std::array<Slot, kMaxWriteBatch> slots_;
    /** flush()'s scratch: filled per flush, never cleared. */
    std::array<CtrlWriteRequest, kMaxWriteBatch> requests_;
    std::array<CtrlWriteResult, kMaxWriteBatch> results_;
    std::size_t capacity_ = 1;
    std::size_t size_ = 0;

    Counter flushRead_;
    Counter flushQueueFull_;
    Counter flushBatchFull_;
    Counter flushTraceEnd_;
    Counter writesStaged_;
};

} // namespace dewrite

#endif // DEWRITE_CPU_BATCH_FORMER_HH
