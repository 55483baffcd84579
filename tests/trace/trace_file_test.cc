/**
 * @file
 * Trace file round-trip and robustness tests.
 */

#include "trace/trace_file.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.hh"
#include "trace/app_catalog.hh"
#include "trace/trace_gen.hh"

namespace dewrite {
namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::string(::testing::TempDir()) + "/dewrite_trace_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->line()) +
                ".dwtr";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceFileTest, RoundTripPreservesEveryField)
{
    SyntheticWorkload source(appByName("gcc"), 9);
    std::vector<MemEvent> original;
    {
        TraceFileWriter writer(path_);
        MemEvent event;
        for (int i = 0; i < 500; ++i) {
            ASSERT_TRUE(source.next(event));
            writer.append(event);
            original.push_back(event);
        }
        EXPECT_EQ(writer.eventsWritten(), 500u);
    }

    TraceFileSource replay(path_);
    EXPECT_EQ(replay.eventCount(), 500u);
    MemEvent event;
    for (const MemEvent &expected : original) {
        ASSERT_TRUE(replay.next(event));
        EXPECT_EQ(event.isWrite, expected.isWrite);
        EXPECT_EQ(event.addr, expected.addr);
        EXPECT_EQ(event.instGap, expected.instGap);
        if (expected.isWrite) {
            EXPECT_EQ(event.data, expected.data);
        }
    }
    EXPECT_FALSE(replay.next(event)); // Exhausted.
}

TEST_F(TraceFileTest, RecordHelperBoundsEvents)
{
    SyntheticWorkload source(appByName("mcf"), 10);
    {
        TraceFileWriter writer(path_);
        EXPECT_EQ(writer.record(source, 123), 123u);
    }
    TraceFileSource replay(path_);
    EXPECT_EQ(replay.eventCount(), 123u);
}

TEST_F(TraceFileTest, RewindReplaysFromStart)
{
    {
        TraceFileWriter writer(path_);
        MemEvent event;
        event.isWrite = true;
        event.addr = 42;
        event.data = Line::filled(0xcd);
        writer.append(event);
    }
    TraceFileSource replay(path_);
    MemEvent event;
    ASSERT_TRUE(replay.next(event));
    ASSERT_FALSE(replay.next(event));
    replay.rewind();
    ASSERT_TRUE(replay.next(event));
    EXPECT_EQ(event.addr, 42u);
    EXPECT_EQ(event.data, Line::filled(0xcd));
}

TEST_F(TraceFileTest, ReadsCarryZeroPayload)
{
    {
        TraceFileWriter writer(path_);
        MemEvent event;
        event.addr = 7;
        event.instGap = 99;
        writer.append(event);
    }
    TraceFileSource replay(path_);
    MemEvent event;
    ASSERT_TRUE(replay.next(event));
    EXPECT_FALSE(event.isWrite);
    EXPECT_EQ(event.instGap, 99u);
    EXPECT_TRUE(event.data.isZero());
}

TEST_F(TraceFileTest, TruncatedPayloadStopsCleanly)
{
    {
        TraceFileWriter writer(path_);
        MemEvent event;
        event.isWrite = true;
        event.addr = 1;
        event.data = Line::filled(1);
        writer.append(event);
        writer.append(event);
    }
    // Chop the file mid-payload of the second event.
    std::FILE *file = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    ASSERT_EQ(truncate(path_.c_str(), size - 100), 0);

    TraceFileSource replay(path_);
    MemEvent event;
    EXPECT_TRUE(replay.next(event));
    EXPECT_FALSE(replay.next(event)); // Stops, does not crash.
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    std::FILE *file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite("NOPE000000000000", 1, 16, file);
    std::fclose(file);
    EXPECT_EXIT(TraceFileSource replay(path_),
                testing::ExitedWithCode(1), "bad magic");
}

TEST_F(TraceFileTest, UnknownEventKindIsFatal)
{
    {
        TraceFileWriter writer(path_);
        MemEvent event;
        event.addr = 3;
        writer.append(event);
        writer.append(event);
    }
    // A read record is kind (1) + address (8) + gap (4) bytes after
    // the 16-byte header; give the second event a kind the format
    // does not have.
    std::FILE *file = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 16 + 13, SEEK_SET);
    std::fputc(2, file);
    std::fclose(file);

    TraceFileSource replay(path_);
    MemEvent event;
    ASSERT_TRUE(replay.next(event));
    EXPECT_EXIT(replay.next(event), testing::ExitedWithCode(1),
                "event 1 has kind 2");
}

TEST_F(TraceFileTest, GapBeyondU32IsFatal)
{
    TraceFileWriter writer(path_);
    MemEvent event;
    event.instGap = std::uint64_t{ 1 } << 32;
    EXPECT_EXIT(writer.append(event), testing::ExitedWithCode(1),
                "instruction gap 4294967296 does not fit");
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceFileSource replay("/nonexistent/nope.dwtr"),
                testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace dewrite
