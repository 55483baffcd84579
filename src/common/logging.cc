/**
 * @file
 * Logging implementation.
 *
 * Thread safety: the old implementation issued three fprintf calls per
 * report, so two runner workers warning at once could interleave
 * fragments. Each report is now formatted into a private buffer and
 * handed to fwrite once, with a process-wide mutex serializing the
 * write (stdio's own locking only covers single calls).
 */

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace dewrite {

namespace {

// dewrite-owned: sync(reportMutex) serializes stderr writes;
// never touched per-event on shard drain paths
std::mutex reportMutex;

void
vreport(const char *prefix, const char *fmt, std::va_list args)
{
    // Probe pass sizes the message (va_list must be copied — the
    // second vsnprintf needs a fresh traversal).
    std::va_list sizing;
    va_copy(sizing, args);
    const int body = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    if (body < 0)
        return;

    // dewrite-analyze: allow(hot-path-purity) failure/diagnostic path; the process is reporting, not
    // simulating
    std::string line(prefix);
    line += ": ";
    const std::size_t head = line.size();
    // dewrite-analyze: allow(hot-path-purity) failure/diagnostic path
    line.resize(head + static_cast<std::size_t>(body) + 1);
    std::vsnprintf(line.data() + head,
                   static_cast<std::size_t>(body) + 1, fmt, args);
    line.back() = '\n';

    std::lock_guard lock(reportMutex);
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

} // namespace dewrite
