/**
 * @file
 * Workload measurement tests with hand-built traces.
 */

#include "trace/workload_stats.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace dewrite {
namespace {

/** A scripted trace for exact-value tests. */
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
writeEvent(LineAddr addr, const Line &data)
{
    MemEvent event;
    event.isWrite = true;
    event.addr = addr;
    event.data = data;
    return event;
}

MemEvent
readEvent(LineAddr addr)
{
    MemEvent event;
    event.addr = addr;
    return event;
}

TEST(WorkloadStatsTest, CountsDuplicatesAgainstLiveImage)
{
    const Line a = Line::filled(1);
    const Line b = Line::filled(2);
    ScriptedTrace trace({
        writeEvent(0, a), // Unique.
        writeEvent(1, a), // Duplicate of line 0.
        writeEvent(2, b), // Unique.
        writeEvent(0, b), // Duplicate of line 2.
        readEvent(1),
    });
    const WorkloadStats stats = measureWorkload(trace, 100);
    EXPECT_EQ(stats.writes, 4u);
    EXPECT_EQ(stats.duplicateWrites, 2u);
    EXPECT_EQ(stats.reads, 1u);
    EXPECT_DOUBLE_EQ(stats.dupFraction(), 0.5);
}

TEST(WorkloadStatsTest, OverwrittenContentIsNoLongerDuplicate)
{
    const Line a = Line::filled(1);
    const Line b = Line::filled(2);
    ScriptedTrace trace({
        writeEvent(0, a),
        writeEvent(0, b), // 'a' vanishes from memory.
        writeEvent(1, a), // NOT a duplicate anymore.
    });
    const WorkloadStats stats = measureWorkload(trace, 100);
    EXPECT_EQ(stats.duplicateWrites, 0u);
}

TEST(WorkloadStatsTest, SilentStoreCountsAsDuplicate)
{
    const Line a = Line::filled(3);
    ScriptedTrace trace({
        writeEvent(0, a),
        writeEvent(0, a), // Identical to the content at its own line.
    });
    const WorkloadStats stats = measureWorkload(trace, 100);
    EXPECT_EQ(stats.duplicateWrites, 1u);
}

TEST(WorkloadStatsTest, ZeroWritesCounted)
{
    ScriptedTrace trace({
        writeEvent(0, Line()),
        writeEvent(1, Line::filled(1)),
        writeEvent(2, Line()),
    });
    const WorkloadStats stats = measureWorkload(trace, 100);
    EXPECT_EQ(stats.zeroWrites, 2u);
    // The second zero write is also a duplicate of the first.
    EXPECT_EQ(stats.duplicateWrites, 1u);
}

TEST(WorkloadStatsTest, StatePersistenceOverWrites)
{
    const Line a = Line::filled(1);
    ScriptedTrace trace({
        writeEvent(0, a),              // unique (state U)
        writeEvent(1, a),              // dup    (state D) - change
        writeEvent(2, a),              // dup    (state D) - same
        writeEvent(3, Line::filled(9)),// unique (state U) - change
    });
    const WorkloadStats stats = measureWorkload(trace, 100);
    EXPECT_EQ(stats.sameStateAsPrev, 1u);
    EXPECT_DOUBLE_EQ(stats.statePersistence(), 1.0 / 3.0);
}

TEST(WorkloadStatsTest, VisitorSeesEachWriteWithItsVerdict)
{
    const Line a = Line::filled(1);
    const Line b = Line::filled(2);
    ScriptedTrace trace({
        writeEvent(0, a), // Unique.
        readEvent(0),
        writeEvent(1, a), // Duplicate of line 0.
        writeEvent(1, a), // Silent store.
        writeEvent(0, b), // Unique; line 1 still holds 'a'.
        writeEvent(1, b), // Duplicate of line 0; 'a' leaves memory.
        readEvent(1),
        writeEvent(2, a), // Unique: its only source was overwritten.
    });
    std::vector<LineAddr> addrs;
    std::vector<Line> contents;
    std::vector<bool> verdicts;
    const WorkloadStats stats = measureWorkload(
        trace, 100, [&](const MemEvent &event, bool duplicate) {
            EXPECT_TRUE(event.isWrite);
            addrs.push_back(event.addr);
            contents.push_back(event.data);
            verdicts.push_back(duplicate);
        });

    EXPECT_EQ(addrs, (std::vector<LineAddr>{ 0, 1, 1, 0, 1, 2 }));
    EXPECT_TRUE(contents == (std::vector<Line>{ a, a, a, b, b, a }));
    EXPECT_EQ(verdicts, (std::vector<bool>{ false, true, true, false,
                                            true, false }));
    EXPECT_EQ(stats.writes, verdicts.size());
    EXPECT_EQ(stats.reads, 2u);
    EXPECT_EQ(stats.duplicateWrites,
              static_cast<std::uint64_t>(
                  std::count(verdicts.begin(), verdicts.end(), true)));
}

TEST(WorkloadStatsTest, MaxEventsTruncates)
{
    const Line a = Line::filled(1);
    ScriptedTrace trace({
        writeEvent(0, a),
        writeEvent(1, a),
        writeEvent(2, a),
    });
    const WorkloadStats stats = measureWorkload(trace, 2);
    EXPECT_EQ(stats.writes, 2u);
}

TEST(WorkloadStatsTest, EmptyTrace)
{
    ScriptedTrace trace({});
    const WorkloadStats stats = measureWorkload(trace, 100);
    EXPECT_EQ(stats.writes, 0u);
    EXPECT_DOUBLE_EQ(stats.dupFraction(), 0.0);
    EXPECT_DOUBLE_EQ(stats.statePersistence(), 0.0);
}

} // namespace
} // namespace dewrite
