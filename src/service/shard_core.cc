/**
 * @file
 * ShardCore implementation.
 */

#include "service/shard_core.hh"

namespace dewrite {

ShardCore::ShardCore(const TimingConfig &timing,
                     MemController &controller,
                     std::size_t batch_capacity)
    : timing_(timing), controller_(controller),
      step_(timing_, controller_, former_)
{
    former_.reset(batch_capacity);
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
ShardCore::feed(const MemEvent &event)
{
    step_.feed(event);
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
ShardCore::feed(const MemEvent *events, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        step_.feed(events[i]);
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
RunResult
ShardCore::finish()
{
    former_.flush(controller_, BatchFormer::FlushReason::TraceEnd);
    return tally({ &step_, 1 }, timing_, controller_);
}

} // namespace dewrite
