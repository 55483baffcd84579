/**
 * @file
 * BatchFormer implementation.
 */

#include "cpu/batch_former.hh"

#include "common/check.hh"
#include "cpu/core_model.hh"

namespace dewrite {

void
BatchFormer::reset(std::size_t capacity)
{
    DEWRITE_CHECK(capacity >= 1 && capacity <= kMaxWriteBatch,
                  "batch capacity %zu outside 1..%zu", capacity,
                  kMaxWriteBatch);
    capacity_ = capacity;
    size_ = 0;
}

void
BatchFormer::stage(CoreStep &core, LineAddr addr, const Line &data,
                   Time now)
{
    DEWRITE_DCHECK(size_ < capacity_, "batch overflow");
    slots_[size_++] = { &core, addr, now, data };
    writesStaged_.increment();
}

void
BatchFormer::flush(MemController &controller, FlushReason reason)
{
    if (size_ == 0)
        return;
    for (std::size_t i = 0; i < size_; ++i)
        requests_[i] = { slots_[i].addr, &slots_[i].data, slots_[i].now };
    controller.writeBatch(requests_.data(), results_.data(), size_);
    for (std::size_t i = 0; i < size_; ++i) {
        slots_[i].core->resolve(slots_[i].now + results_[i].latency,
                                results_[i].eliminated);
    }

    switch (reason) {
      case FlushReason::Read:
        flushRead_.increment();
        break;
      case FlushReason::QueueFull:
        flushQueueFull_.increment();
        break;
      case FlushReason::BatchFull:
        flushBatchFull_.increment();
        break;
      case FlushReason::TraceEnd:
        flushTraceEnd_.increment();
        break;
    }

    size_ = 0;
}

std::uint64_t
BatchFormer::flushes() const
{
    return flushRead_.value() + flushQueueFull_.value() +
           flushBatchFull_.value() + flushTraceEnd_.value();
}

void
BatchFormer::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    scope.counter("writes_staged", writesStaged_,
                  "writes staged into the batch former");
    scope.counter("flush_read", flushRead_,
                  "batches flushed because a read must observe them");
    scope.counter("flush_queue_full", flushQueueFull_,
                  "batches flushed by a full store queue");
    scope.counter("flush_batch_full", flushBatchFull_,
                  "batches flushed at DEWRITE_BATCH staged writes");
    scope.counter("flush_trace_end", flushTraceEnd_,
                  "batch tails drained at end of trace");
}

} // namespace dewrite
