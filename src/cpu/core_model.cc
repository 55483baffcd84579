/**
 * @file
 * CoreModel implementation.
 */

#include "cpu/core_model.hh"

#include <algorithm>
#include <array>

#include "common/check.hh"
#include "common/env.hh"
#include "controller/mem_controller.hh"
#include "trace/trace.hh"

namespace dewrite {

std::size_t
writeBatchSize()
{
    // Re-read per call (it runs once per runMulti), which keeps the
    // knob testable with setenv — the env.hh no-latch contract.
    return static_cast<std::size_t>(
        envUint("DEWRITE_BATCH", 16, 1, kMaxWriteBatch));
}

RunResult
CoreModel::run(TraceSource &trace, MemController &controller,
               std::uint64_t max_events)
{
    std::vector<TraceSource *> traces{ &trace };
    return runMulti(traces, controller, max_events);
}

void
CoreModel::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    former_.registerMetrics(scope.scope("batch"));
}

RunResult
CoreModel::runMulti(const std::vector<TraceSource *> &traces,
                    MemController &controller, std::uint64_t max_events)
{
    /**
     * One in-flight write completion. While the write sits in the
     * current unflushed batch its completion time is unknown and
     * @c batchSlot names its staging slot; flushing resolves it.
     */
    struct StoreEntry
    {
        Time complete = 0;
        std::int32_t batchSlot = -1; //!< -1: resolved.
    };

    struct CoreState
    {
        TraceSource *trace;
        Time now = 0;
        MemEvent pending;
        Time issueAt = 0; //!< now + pending compute phase.
        bool alive = false;
        std::vector<StoreEntry> storeQueue; //!< In-flight writes.
    };

    // The +1 cycle per event is the memory instruction's own issue
    // slot, so IPC can reach but not exceed one per core.
    std::vector<CoreState> cores(traces.size());
    for (std::size_t c = 0; c < traces.size(); ++c) {
        cores[c].trace = traces[c];
        cores[c].alive = traces[c]->next(cores[c].pending);
        cores[c].issueAt = timing_.cycles(cores[c].pending.instGap + 1);
    }

    // The batch former exploits a slack in the core model: a write's
    // controller latency feeds back into core scheduling only when the
    // store queue drains, so consecutive globally-selected writes can
    // be staged and handed to the controller as one writeBatch() —
    // which replays them in the exact serial order (strict-equivalence
    // contract). Any read, a full queue, or a full batch forces the
    // flush first; since an entry retires only from a full queue, a
    // core's writes after its first storeQueueDepth flush one by one.
    former_.reset(writeBatchSize());
    std::array<CtrlWriteResult, kMaxWriteBatch> responses;

    RunResult result;

    const auto flush = [&](BatchFormer::FlushReason reason) {
        if (former_.flush(controller, responses.data(), reason) == 0)
            return;
        for (auto &core : cores) {
            for (auto &entry : core.storeQueue) {
                if (entry.batchSlot >= 0) {
                    if (responses[entry.batchSlot].eliminated)
                        ++result.writesEliminated;
                    entry.complete = former_.slotNow(entry.batchSlot) +
                                     responses[entry.batchSlot].latency;
                    entry.batchSlot = -1;
                }
            }
        }
    };

    for (std::uint64_t issued = 0; issued < max_events; ++issued) {
        // Issue the globally earliest pending event.
        CoreState *core = nullptr;
        for (auto &candidate : cores) {
            if (candidate.alive &&
                (!core || candidate.issueAt < core->issueAt)) {
                core = &candidate;
            }
        }
        if (!core)
            break; // All traces exhausted.

        core->now = core->issueAt;
        result.instructions += core->pending.instGap + 1;
        ++result.events;

        if (core->pending.isWrite) {
            // Stage the write; its completion resolves at flush. The
            // write drains from the persist queue; the core stalls
            // only when the queue is at capacity (ordering is kept by
            // queue FIFO order plus per-bank serialization).
            const std::size_t slot = former_.stage(
                core->pending.addr, core->pending.data, core->now);
            core->storeQueue.push_back(
                { 0, static_cast<std::int32_t>(slot) });
            ++result.writes;

            const unsigned depth = std::max(1u, timing_.storeQueueDepth);
            if (former_.full()) {
                flush(BatchFormer::FlushReason::BatchFull);
            } else if (core->storeQueue.size() >= depth) {
                flush(BatchFormer::FlushReason::QueueFull);
            }
            while (core->storeQueue.size() >= depth) {
                core->now =
                    std::max(core->now, core->storeQueue.front().complete);
                core->storeQueue.erase(core->storeQueue.begin());
            }
        } else {
            // The controller must observe every staged write first.
            flush(BatchFormer::FlushReason::Read);
            // The core consumes only the latency, so readTiming lets
            // the scheme skip materializing the decrypted line.
            const CtrlReadResult read =
                controller.readTiming(core->pending.addr, core->now);
            // Loads block the in-order core until the data returns;
            // persist ordering constrains stores only, so the queue
            // keeps draining underneath.
            core->now += read.latency;
            ++result.reads;
        }

        core->alive = core->trace->next(core->pending);
        core->issueAt =
            core->now + timing_.cycles(core->pending.instGap + 1);
    }
    flush(BatchFormer::FlushReason::TraceEnd);

    Time slowest = 0;
    for (const auto &core : cores)
        slowest = std::max(slowest, core.now);
    result.cycles = slowest / timing_.cyclePeriod;
    result.ipc = result.cycles
        ? static_cast<double>(result.instructions) / result.cycles
        : 0.0;
    result.avgWriteLatencyNs =
        controller.avgWriteLatency() / kNanoSecond;
    result.avgReadLatencyNs = controller.avgReadLatency() / kNanoSecond;
    return result;
}

} // namespace dewrite
