/**
 * @file
 * DEWRITE_CHECK failure reporting.
 */

// dewrite-analyze: allow-file(hot-path-purity) checkFailed is the
// failure path of every DEWRITE_CHECK, including those in hot kernels:
// it formats one report and panics, so it allocates at most once.

#include "common/check.hh"

#include <cstdarg>
#include <cstdio>
#include <string>

namespace dewrite {
namespace detail {

void
checkFailed(const char *file, int line, const char *condition,
            const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list sizing;
    va_copy(sizing, args);
    const int body = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);

    std::string message;
    if (body > 0) {
        message.resize(static_cast<std::size_t>(body) + 1);
        std::vsnprintf(message.data(),
                       static_cast<std::size_t>(body) + 1, fmt, args);
        message.resize(static_cast<std::size_t>(body));
    }
    va_end(args);

    panic("DEWRITE_CHECK failed at %s:%d: (%s) %s", file, line,
          condition, message.c_str());
}

} // namespace detail
} // namespace dewrite
