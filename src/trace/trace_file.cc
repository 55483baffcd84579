/**
 * @file
 * Trace file implementation.
 */

#include "trace/trace_file.hh"

#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace dewrite {

namespace {

constexpr char kMagic[4] = { 'D', 'W', 'T', 'R' };
constexpr std::uint32_t kVersion = 1;

/** Header bytes: magic + version + event count. */
constexpr long kHeaderSize = 4 + 4 + 8;

void
writeLittle32(std::FILE *file, std::uint32_t value)
{
    std::uint8_t bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    std::fwrite(bytes, 1, 4, file);
}

void
writeLittle64(std::FILE *file, std::uint64_t value)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    std::fwrite(bytes, 1, 8, file);
}

bool
readLittle32(std::FILE *file, std::uint32_t &value)
{
    std::uint8_t bytes[4];
    if (std::fread(bytes, 1, 4, file) != 4)
        return false;
    value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
    return true;
}

bool
readLittle64(std::FILE *file, std::uint64_t &value)
{
    std::uint8_t bytes[8];
    if (std::fread(bytes, 1, 8, file) != 8)
        return false;
    value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return true;
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb"))
{
    if (!file_)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    std::fwrite(kMagic, 1, 4, file_);
    writeLittle32(file_, kVersion);
    writeLittle64(file_, 0); // Event count patched at close.
}

TraceFileWriter::~TraceFileWriter()
{
    std::fseek(file_, 8, SEEK_SET);
    writeLittle64(file_, events_);
    std::fclose(file_);
}

void
TraceFileWriter::append(const MemEvent &event)
{
    if (event.instGap > std::numeric_limits<std::uint32_t>::max()) {
        fatal("trace event %llu: instruction gap %llu does not fit the "
              "format's u32 field",
              static_cast<unsigned long long>(events_),
              static_cast<unsigned long long>(event.instGap));
    }
    const std::uint8_t kind = event.isWrite ? 1 : 0;
    std::fwrite(&kind, 1, 1, file_);
    writeLittle64(file_, event.addr);
    writeLittle32(file_, static_cast<std::uint32_t>(event.instGap));
    if (event.isWrite)
        std::fwrite(event.data.data(), 1, kLineSize, file_);
    ++events_;
}

std::uint64_t
TraceFileWriter::record(TraceSource &source, std::uint64_t max_events)
{
    MemEvent event;
    std::uint64_t recorded = 0;
    while (recorded < max_events && source.next(event)) {
        append(event);
        ++recorded;
    }
    return recorded;
}

TraceFileSource::TraceFileSource(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb"))
{
    if (!file_)
        fatal("cannot open trace file '%s'", path.c_str());
    char magic[4];
    std::uint32_t version = 0;
    if (std::fread(magic, 1, 4, file_) != 4 ||
        std::memcmp(magic, kMagic, 4) != 0) {
        fatal("'%s' is not a DeWrite trace (bad magic)", path.c_str());
    }
    if (!readLittle32(file_, version) || version != kVersion)
        fatal("'%s': unsupported trace version %u", path.c_str(),
              version);
    if (!readLittle64(file_, eventCount_))
        fatal("'%s': truncated trace header", path.c_str());
    dataStart_ = kHeaderSize;
}

TraceFileSource::~TraceFileSource()
{
    std::fclose(file_);
}

bool
TraceFileSource::next(MemEvent &event)
{
    if (delivered_ >= eventCount_)
        return false;
    std::uint8_t kind;
    std::uint64_t addr;
    std::uint32_t gap;
    if (std::fread(&kind, 1, 1, file_) != 1 ||
        !readLittle64(file_, addr) || !readLittle32(file_, gap)) {
        warn("trace ends early after %llu of %llu events",
             static_cast<unsigned long long>(delivered_),
             static_cast<unsigned long long>(eventCount_));
        delivered_ = eventCount_;
        return false;
    }
    if (kind > 1) {
        fatal("trace event %llu has kind %u (0 read, 1 write): corrupt "
              "or not a DeWrite trace",
              static_cast<unsigned long long>(delivered_),
              static_cast<unsigned>(kind));
    }
    event.isWrite = kind == 1;
    event.addr = addr;
    event.instGap = gap;
    if (event.isWrite &&
        std::fread(event.data.data(), 1, kLineSize, file_) != kLineSize) {
        warn("trace payload truncated at event %llu",
             static_cast<unsigned long long>(delivered_));
        delivered_ = eventCount_;
        return false;
    }
    if (!event.isWrite)
        event.data = Line();
    ++delivered_;
    return true;
}

void
TraceFileSource::rewind()
{
    std::fseek(file_, dataStart_, SEEK_SET);
    delivered_ = 0;
}

} // namespace dewrite
