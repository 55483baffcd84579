/**
 * @file
 * Trace recording and replay.
 *
 * The paper evaluates on SPEC/PARSEC traces we cannot redistribute;
 * the synthetic generators stand in for them. This module closes the
 * loop for users who *do* have traces: any TraceSource can be recorded
 * to a compact binary file, and a recorded file replays through any
 * controller — so gem5/Pin/DynamoRIO line-granularity traces can be
 * converted once and driven through every experiment in this
 * repository.
 *
 * Format (little-endian):
 *   header:  magic "DWTR", u32 version (1), u64 event count
 *   event:   u8 kind (0 read, 1 write), u64 line address,
 *            u32 instruction gap, and for writes the 256 B payload.
 */

#ifndef DEWRITE_TRACE_TRACE_FILE_HH
#define DEWRITE_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <string>

#include "trace/trace.hh"

namespace dewrite {

/** Streams events to a trace file. */
class TraceFileWriter
{
  public:
    /** Opens @p path for writing; fatal() on failure. */
    explicit TraceFileWriter(const std::string &path);

    /** Finalizes the header (event count) and closes the file. */
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Appends one event; fatal() if its instGap exceeds u32. */
    void append(const MemEvent &event);

    /** Records up to @p max_events events pulled from @p source. */
    std::uint64_t record(TraceSource &source, std::uint64_t max_events);

    std::uint64_t eventsWritten() const { return events_; }

  private:
    std::FILE *file_;
    std::uint64_t events_ = 0;
};

/** Replays a trace file as a TraceSource. */
class TraceFileSource : public TraceSource
{
  public:
    /** Opens and validates @p path; fatal() on a malformed file. */
    explicit TraceFileSource(const std::string &path);

    ~TraceFileSource() override;

    TraceFileSource(const TraceFileSource &) = delete;
    TraceFileSource &operator=(const TraceFileSource &) = delete;

    /** fatal() on an event kind other than 0 or 1. */
    bool next(MemEvent &event) override;

    /** Events the header promises. */
    std::uint64_t eventCount() const { return eventCount_; }

    /** Rewinds to the first event. */
    void rewind();

  private:
    std::FILE *file_;
    std::uint64_t eventCount_ = 0;
    std::uint64_t delivered_ = 0;
    long dataStart_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_TRACE_TRACE_FILE_HH
