/**
 * @file
 * ShardCore implementation.
 *
 * Every numbered step here mirrors CoreModel::runMulti specialized to
 * one core; the two must stay in lockstep or the service/reference
 * parity fingerprints diverge. The shared BatchFormer keeps the
 * trickiest piece — staging and flush attribution — literally the same
 * code.
 */

#include "service/shard_core.hh"

#include <algorithm>

#include "controller/mem_controller.hh"

namespace dewrite {

ShardCore::ShardCore(const TimingConfig &timing,
                     MemController &controller,
                     std::size_t batch_capacity)
    : timing_(timing), controller_(controller)
{
    former_.reset(batch_capacity);
}

// dewrite-analyze: root(shard-isolation)
void
ShardCore::flush(BatchFormer::FlushReason reason)
{
    if (former_.flush(controller_, responses_.data(), reason) == 0)
        return;
    for (StoreEntry &entry : storeQueue_) {
        if (entry.batchSlot >= 0) {
            if (responses_[entry.batchSlot].eliminated)
                ++writesEliminated_;
            entry.complete = former_.slotNow(entry.batchSlot) +
                             responses_[entry.batchSlot].latency;
            entry.batchSlot = -1;
        }
    }
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
ShardCore::feed(const MemEvent &event)
{
    // The +1 cycle is the memory instruction's own issue slot (the
    // CoreModel convention); the event issues after its compute phase.
    now_ += timing_.cycles(event.instGap + 1);
    instructions_ += event.instGap + 1;
    ++events_;

    if (event.isWrite) {
        const std::size_t slot =
            former_.stage(event.addr, event.data, now_);
        storeQueue_.push_back({ 0, static_cast<std::int32_t>(slot) });
        ++writes_;

        const unsigned depth = std::max(1u, timing_.storeQueueDepth);
        if (former_.full()) {
            flush(BatchFormer::FlushReason::BatchFull);
        } else if (storeQueue_.size() >= depth) {
            flush(BatchFormer::FlushReason::QueueFull);
        }
        while (storeQueue_.size() >= depth) {
            now_ = std::max(now_, storeQueue_.front().complete);
            storeQueue_.pop_front();
        }
    } else {
        // The controller must observe every staged write first.
        flush(BatchFormer::FlushReason::Read);
        const CtrlReadResult read =
            controller_.readTiming(event.addr, now_);
        now_ += read.latency;
        ++reads_;
    }
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
ShardCore::feed(const MemEvent *events, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        feed(events[i]);
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
RunResult
ShardCore::finish()
{
    flush(BatchFormer::FlushReason::TraceEnd);

    RunResult result;
    result.instructions = instructions_;
    result.events = events_;
    result.writes = writes_;
    result.reads = reads_;
    result.writesEliminated = writesEliminated_;
    result.cycles = now_ / timing_.cyclePeriod;
    result.ipc = result.cycles
        ? static_cast<double>(instructions_) / result.cycles
        : 0.0;
    result.avgWriteLatencyNs =
        controller_.avgWriteLatency() / kNanoSecond;
    result.avgReadLatencyNs = controller_.avgReadLatency() / kNanoSecond;
    return result;
}

} // namespace dewrite
