/**
 * @file
 * CoreModel implementation.
 */

#include "cpu/core_model.hh"

#include <algorithm>

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

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
CoreStep::feed(const MemEvent &event)
{
    now_ = issueAt(event.instGap);
    counts_.instructions += event.instGap + 1;
    ++counts_.events;

    if (event.isWrite) {
        // Stage the write; its completion resolves at flush. The write
        // drains from the persist queue; the core stalls only when the
        // queue is at capacity (ordering is kept by queue FIFO order
        // plus per-bank serialization).
        former_.stage(*this, event.addr, event.data, now_);
        storeQueue_.push_back(0);
        ++unresolved_;
        ++counts_.writes;

        const std::size_t depth = std::max(1u, timing_.storeQueueDepth);
        if (former_.full()) {
            former_.flush(controller_, BatchFormer::FlushReason::BatchFull);
        } else if (storeQueue_.size() >= depth) {
            former_.flush(controller_, BatchFormer::FlushReason::QueueFull);
        }
        while (storeQueue_.size() >= depth) {
            DEWRITE_DCHECK(unresolved_ == 0, "retiring a staged write");
            now_ = std::max(now_, storeQueue_.front());
            storeQueue_.pop_front();
        }
    } else {
        // The controller must observe every staged write first.
        former_.flush(controller_, BatchFormer::FlushReason::Read);
        // The core consumes only the latency, so readTiming lets the
        // scheme skip materializing the decrypted line. Loads block
        // the in-order core until the data returns; persist ordering
        // constrains stores only, so the queue keeps draining
        // underneath.
        now_ += controller_.readTiming(event.addr, now_).latency;
        ++counts_.reads;
    }
}

RunResult
tally(std::span<const CoreStep> cores, const TimingConfig &timing,
      const MemController &controller)
{
    RunResult result;
    Time slowest = 0;
    for (const CoreStep &core : cores) {
        const RunResult &counts = core.counts();
        result.instructions += counts.instructions;
        result.events += counts.events;
        result.writes += counts.writes;
        result.reads += counts.reads;
        result.writesEliminated += counts.writesEliminated;
        slowest = std::max(slowest, core.now());
    }
    result.cycles = slowest / timing.cyclePeriod;
    result.ipc = result.cycles
        ? static_cast<double>(result.instructions) / result.cycles
        : 0.0;
    result.avgWriteLatencyNs =
        controller.avgWriteLatency() / kNanoSecond;
    result.avgReadLatencyNs = controller.avgReadLatency() / kNanoSecond;
    return result;
}

RunResult
CoreModel::runMulti(const std::vector<TraceSource *> &traces,
                    MemController &controller, std::uint64_t max_events)
{
    /** A core's next event, pulled only after it issued the last. */
    struct Pull
    {
        Time issueAt = 0;
        bool alive = false;
        MemEvent pending;
    };

    // The batch former exploits a slack in the core model: a write's
    // controller latency feeds back into core scheduling only when the
    // store queue drains, so consecutive globally-selected writes can
    // be staged and handed to the controller as one writeBatch() —
    // which replays them in the exact serial order (strict-equivalence
    // contract). Any read, a full queue, or a full batch forces the
    // flush first; since an entry retires only from a full queue, a
    // core's writes after its first storeQueueDepth flush one by one.
    former_.reset(writeBatchSize());
    std::vector<CoreStep> cores;
    cores.reserve(traces.size()); // The former keeps steps' addresses.
    std::vector<Pull> pulls(traces.size());
    for (std::size_t c = 0; c < traces.size(); ++c) {
        cores.emplace_back(timing_, controller, former_);
        pulls[c].alive = traces[c]->next(pulls[c].pending);
        pulls[c].issueAt = cores[c].issueAt(pulls[c].pending.instGap);
    }

    for (std::uint64_t issued = 0; issued < max_events; ++issued) {
        // Issue the globally earliest pending event; ties go to the
        // lowest core index.
        std::size_t next = traces.size();
        for (std::size_t c = 0; c < traces.size(); ++c) {
            if (pulls[c].alive &&
                (next == traces.size() ||
                 pulls[c].issueAt < pulls[next].issueAt)) {
                next = c;
            }
        }
        if (next == traces.size())
            break; // All traces exhausted.

        Pull &pull = pulls[next];
        cores[next].feed(pull.pending);
        pull.alive = traces[next]->next(pull.pending);
        pull.issueAt = cores[next].issueAt(pull.pending.instGap);
    }
    former_.flush(controller, BatchFormer::FlushReason::TraceEnd);
    return tally(cores, timing_, controller);
}

} // namespace dewrite
