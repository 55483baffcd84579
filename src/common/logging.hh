/**
 * @file
 * gem5-style error reporting: panic/fatal/warn.
 *
 * panic() flags simulator bugs (aborts); fatal() flags unusable user
 * configuration (exits cleanly with an error code); warn() prints and
 * continues. Reports are thread-safe: each message is formatted
 * privately and written to stderr in one call, so messages from
 * parallel runner workers never interleave mid-line.
 */

#ifndef DEWRITE_COMMON_LOGGING_HH
#define DEWRITE_COMMON_LOGGING_HH

#include <cstdarg>

namespace dewrite {

/** Internal invariant violated — a DeWrite bug. Prints and aborts. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Unusable configuration or input — a user error. Prints and exits(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace dewrite

#endif // DEWRITE_COMMON_LOGGING_HH
