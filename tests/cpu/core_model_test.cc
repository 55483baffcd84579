/**
 * @file
 * CoreModel tests: single-core stalls, persist write queues, and
 * multi-core interleaving — exercised against a stub controller with
 * fixed latencies so every cycle count is predictable.
 */

#include "cpu/core_model.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "controller/mem_controller.hh"
#include "trace/trace.hh"

namespace dewrite {
namespace {

/** Fixed-latency controller that records issue times. */
class StubController : public MemController
{
  public:
    StubController(Time write_latency, Time read_latency)
        : writeLatency_(write_latency), readLatency_(read_latency)
    {
    }

    CtrlWriteResult
    write(LineAddr addr, const Line &, Time now) override
    {
        writeIssues.push_back({ addr, now });
        noteWrite(writeLatency_, false, kLineBits);
        return { writeLatency_, false };
    }

    CtrlReadResult
    read(LineAddr addr, Time now) override
    {
        readIssues.push_back({ addr, now });
        noteRead(readLatency_);
        CtrlReadResult result;
        result.latency = readLatency_;
        result.valid = true;
        return result;
    }

    std::string name() const override { return "stub"; }
    Energy controllerEnergy() const override { return 0; }

    std::vector<std::pair<LineAddr, Time>> writeIssues;
    std::vector<std::pair<LineAddr, Time>> readIssues;

  private:
    Time writeLatency_;
    Time readLatency_;
};

/**
 * Records every writeBatch() size, then runs the serial base loop, and
 * how many writes the controller had seen when each read arrived.
 */
class BatchSizeRecorder : public StubController
{
  public:
    using StubController::StubController;

    void
    writeBatch(const CtrlWriteRequest *requests, CtrlWriteResult *results,
               std::size_t count) override
    {
        batchSizes.push_back(count);
        MemController::writeBatch(requests, results, count);
    }

    CtrlReadResult
    read(LineAddr addr, Time now) override
    {
        writesSeenAtRead.push_back(writeIssues.size());
        return StubController::read(addr, now);
    }

    std::vector<std::size_t> batchSizes;
    std::vector<std::size_t> writesSeenAtRead;
};

/** Reports every write to an even address as eliminated. */
class EvenEliminator : public StubController
{
  public:
    using StubController::StubController;

    CtrlWriteResult
    write(LineAddr addr, const Line &data, Time now) override
    {
        CtrlWriteResult result = StubController::write(addr, data, now);
        result.eliminated = addr % 2 == 0;
        return result;
    }
};

/** Fixed event script. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<MemEvent> events)
        : events_(std::move(events))
    {
    }

    bool
    next(MemEvent &event) override
    {
        if (position_ >= events_.size())
            return false;
        event = events_[position_++];
        return true;
    }

  private:
    std::vector<MemEvent> events_;
    std::size_t position_ = 0;
};

MemEvent
write(LineAddr addr, std::uint64_t gap)
{
    MemEvent event;
    event.isWrite = true;
    event.addr = addr;
    event.instGap = gap;
    return event;
}

MemEvent
read(LineAddr addr, std::uint64_t gap)
{
    MemEvent event;
    event.addr = addr;
    event.instGap = gap;
    return event;
}

TEST(CoreModelTest, ReadsBlockTheCore)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    // Two reads with 10-instruction gaps: the second issues only after
    // the first returns.
    ScriptedTrace trace({ read(1, 10), read(2, 10) });
    const RunResult result = core.run(trace, ctrl, 100);

    ASSERT_EQ(ctrl.readIssues.size(), 2u);
    // Each event costs its gap plus one issue cycle.
    EXPECT_EQ(ctrl.readIssues[0].second, timing.cycles(11));
    EXPECT_EQ(ctrl.readIssues[1].second,
              timing.cycles(11) + 100 * kNanoSecond + timing.cycles(11));
    EXPECT_EQ(result.reads, 2u);
    EXPECT_EQ(result.instructions, 22u);
}

TEST(CoreModelTest, StoreQueueOverlapsWrites)
{
    TimingConfig timing;
    timing.storeQueueDepth = 4;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    // Three back-to-back writes fit in the queue: each issues after
    // only its compute gap, not after the previous write completes.
    ScriptedTrace trace({ write(1, 10), write(2, 10), write(3, 10) });
    core.run(trace, ctrl, 100);

    ASSERT_EQ(ctrl.writeIssues.size(), 3u);
    EXPECT_EQ(ctrl.writeIssues[1].second - ctrl.writeIssues[0].second,
              timing.cycles(11));
    EXPECT_EQ(ctrl.writeIssues[2].second - ctrl.writeIssues[1].second,
              timing.cycles(11));
}

TEST(CoreModelTest, FullStoreQueueStalls)
{
    TimingConfig timing;
    timing.storeQueueDepth = 1; // Strict flush-per-store discipline.
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace({ write(1, 10), write(2, 10) });
    core.run(trace, ctrl, 100);

    // The second write waits out the first's full latency.
    EXPECT_EQ(ctrl.writeIssues[1].second - ctrl.writeIssues[0].second,
              300 * kNanoSecond + timing.cycles(11));
}

TEST(CoreModelTest, WritesFlushOneAtATimeOnceTheQueueFills)
{
    // A store-queue entry retires only when the queue is full, so the
    // first storeQueueDepth writes flush together and every later
    // write flushes alone — why no scheme overrides writeBatch().
    ::unsetenv("DEWRITE_BATCH"); // Default capacity 16 > depth 8.
    TimingConfig timing;
    ASSERT_EQ(timing.storeQueueDepth, 8u);
    CoreModel core(timing);
    BatchSizeRecorder ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    constexpr std::size_t kWrites = 100;
    std::vector<MemEvent> events;
    for (std::size_t i = 0; i < kWrites; ++i)
        events.push_back(write(i, 10));
    ScriptedTrace trace(events);
    core.run(trace, ctrl, 1000);

    ASSERT_EQ(ctrl.batchSizes.size(), kWrites - 7);
    EXPECT_EQ(ctrl.batchSizes.front(), 8u);
    for (std::size_t i = 1; i < ctrl.batchSizes.size(); ++i)
        EXPECT_EQ(ctrl.batchSizes[i], 1u) << "flush " << i;
    EXPECT_EQ(ctrl.writeIssues.size(), kWrites);
    EXPECT_EQ(core.former().writesStaged(), kWrites);
    EXPECT_EQ(core.former().flushesOnQueueFull(), kWrites - 7);
    EXPECT_EQ(core.former().flushesOnBatchFull(), 0u);
}

TEST(CoreModelTest, EveryCoreFlushesAloneOnceItsQueueFills)
{
    // Two cores with identical gaps alternate (ties go to core 0), so
    // the shared former holds core 0's first 8 writes and core 1's
    // first 7 when core 0's queue fills; from then on each core's
    // queue stays full and every write flushes alone.
    ::unsetenv("DEWRITE_BATCH");
    TimingConfig timing;
    ASSERT_EQ(timing.storeQueueDepth, 8u);
    CoreModel core(timing);
    BatchSizeRecorder ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    constexpr std::size_t kWritesPerCore = 100;
    std::vector<MemEvent> events_a;
    std::vector<MemEvent> events_b;
    for (std::size_t i = 0; i < kWritesPerCore; ++i) {
        events_a.push_back(write(i, 10));
        events_b.push_back(write(1000 + i, 10));
    }
    ScriptedTrace trace_a(events_a);
    ScriptedTrace trace_b(events_b);
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    core.runMulti(traces, ctrl, 10000);

    constexpr std::size_t kWrites = 2 * kWritesPerCore;
    ASSERT_EQ(ctrl.batchSizes.size(), kWrites - 14);
    EXPECT_EQ(ctrl.batchSizes.front(), 15u);
    for (std::size_t i = 1; i < ctrl.batchSizes.size(); ++i)
        EXPECT_EQ(ctrl.batchSizes[i], 1u) << "flush " << i;
    EXPECT_EQ(ctrl.writeIssues.size(), kWrites);
    EXPECT_EQ(core.former().writesStaged(), kWrites);
    EXPECT_EQ(core.former().flushesOnQueueFull(), kWrites - 14);
    EXPECT_EQ(core.former().flushes(), kWrites - 14);
}

TEST(CoreModelTest, ReadAndTraceEndFlushStagedWrites)
{
    // A read must observe every staged write, so it flushes them as
    // one batch before it reaches the controller; the end of the
    // trace drains whatever is left.
    ::unsetenv("DEWRITE_BATCH");
    TimingConfig timing;
    CoreModel core(timing);
    BatchSizeRecorder ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace(
        { write(1, 10), write(2, 10), write(3, 10), read(1, 10),
          write(4, 10) });
    const RunResult result = core.run(trace, ctrl, 100);

    ASSERT_EQ(ctrl.batchSizes, (std::vector<std::size_t>{ 3, 1 }));
    ASSERT_EQ(ctrl.writeIssues.size(), 4u);
    ASSERT_EQ(ctrl.readIssues.size(), 1u);
    EXPECT_EQ(ctrl.writesSeenAtRead, (std::vector<std::size_t>{ 3 }));
    // Flushed writes keep their own issue times, all before the read.
    EXPECT_LT(ctrl.writeIssues[2].second, ctrl.readIssues[0].second);
    EXPECT_GT(ctrl.writeIssues[3].second, ctrl.readIssues[0].second);
    EXPECT_EQ(core.former().flushesOnRead(), 1u);
    EXPECT_EQ(core.former().flushesOnTraceEnd(), 1u);
    EXPECT_EQ(core.former().flushesOnQueueFull(), 0u);
    EXPECT_EQ(core.former().flushesOnBatchFull(), 0u);
    EXPECT_EQ(core.former().writesStaged(), 4u);
    EXPECT_EQ(result.writes, 4u);
    EXPECT_EQ(result.reads, 1u);
}

TEST(CoreModelTest, ReadFlushResolvesAnotherCoresWrites)
{
    // Core 1's read flushes core 0's first write. Its completion must
    // reach core 0's store queue: core 0's third write fills the queue
    // again and waits for that first write to complete.
    ::unsetenv("DEWRITE_BATCH");
    TimingConfig timing;
    timing.storeQueueDepth = 2;
    CoreModel core(timing);
    BatchSizeRecorder ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace_a({ write(1, 10), write(2, 10), write(3, 10) });
    ScriptedTrace trace_b({ read(9, 15) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    core.runMulti(traces, ctrl, 100);

    EXPECT_EQ(ctrl.batchSizes, (std::vector<std::size_t>{ 1, 1, 1 }));
    EXPECT_EQ(ctrl.writesSeenAtRead, (std::vector<std::size_t>{ 1 }));
    ASSERT_EQ(ctrl.writeIssues.size(), 3u);
    EXPECT_EQ(ctrl.writeIssues[2].second,
              ctrl.writeIssues[0].second + 300 * kNanoSecond +
                  timing.cycles(11));
}

TEST(CoreModelTest, EliminatedWritesCountAcrossCores)
{
    // Core 0's read flushes core 1's write 10, core 1's read flushes
    // core 0's writes 2, 3 and 6, and the trace end flushes both
    // cores' tails: every eliminated write counts once, whichever
    // core's event flushed it.
    ::unsetenv("DEWRITE_BATCH");
    TimingConfig timing;
    CoreModel core(timing);
    EvenEliminator ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace_a({ write(0, 10), read(50, 10), write(2, 10),
                            write(3, 10), write(6, 10), write(8, 10) });
    ScriptedTrace trace_b(
        { write(10, 12), read(51, 250), write(12, 12), write(13, 12) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 100);

    std::uint64_t even = 0;
    for (const auto &[addr, now] : ctrl.writeIssues)
        even += addr % 2 == 0;
    ASSERT_EQ(ctrl.writeIssues.size(), 8u);
    EXPECT_EQ(even, 6u);
    EXPECT_EQ(result.writesEliminated, even);
    EXPECT_EQ(core.former().flushesOnRead(), 2u);
    EXPECT_EQ(core.former().flushesOnTraceEnd(), 1u);
}

TEST(CoreModelTest, MultiCoreInterleavesByTime)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    // Core 0's events sit at gaps 10 and 1000; core 1's at gap 100:
    // global issue order must be 0, 1, 0.
    ScriptedTrace trace_a({ read(10, 10), read(11, 2000) });
    ScriptedTrace trace_b({ read(20, 500) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 100);

    ASSERT_EQ(ctrl.readIssues.size(), 3u);
    EXPECT_EQ(ctrl.readIssues[0].first, 10u);
    EXPECT_EQ(ctrl.readIssues[1].first, 20u);
    EXPECT_EQ(ctrl.readIssues[2].first, 11u);
    EXPECT_EQ(result.events, 3u);
}

TEST(CoreModelTest, MultiCoreCyclesAreSlowestCore)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace_a({ read(1, 10) });
    ScriptedTrace trace_b({ read(2, 10000) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 100);

    // Slowest core: 10000 cycles of compute, one issue cycle, and
    // the read stall.
    EXPECT_EQ(result.cycles,
              10001 + (100 * kNanoSecond) / timing.cyclePeriod);
}

TEST(CoreModelTest, MaxEventsBoundsTotalAcrossCores)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace_a({ read(1, 1), read(2, 1), read(3, 1) });
    ScriptedTrace trace_b({ read(4, 1), read(5, 1), read(6, 1) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 4);
    EXPECT_EQ(result.events, 4u);
}

TEST(CoreModelTest, ExhaustedTraceEndsRun)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);
    ScriptedTrace trace({ read(1, 1) });
    const RunResult result = core.run(trace, ctrl, 1000);
    EXPECT_EQ(result.events, 1u);
}

TEST(CoreModelTest, IpcNeverExceedsOnePerCore)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);
    std::vector<MemEvent> events;
    for (int i = 0; i < 50; ++i)
        events.push_back(write(i, 100));
    ScriptedTrace trace(events);
    const RunResult result = core.run(trace, ctrl, 1000);
    EXPECT_LE(result.ipc, 1.0);
    EXPECT_GT(result.ipc, 0.0);
}

} // namespace
} // namespace dewrite
