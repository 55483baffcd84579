/**
 * @file
 * Invariant assertion macros for the audit layer (DESIGN.md §5e).
 *
 * DEWRITE_CHECK(cond, fmt, ...) verifies @p cond in every build and
 * panics (prints file:line plus the formatted context, then aborts)
 * when it is false — use it for invariants whose violation means the
 * simulator state is corrupt and continuing would produce wrong
 * numbers silently.
 *
 * DEWRITE_DCHECK is the same contract but compiled out of NDEBUG
 * builds (the default RelWithDebInfo defines NDEBUG), so it may guard
 * hot-path invariants without costing the benchmarks anything. Define
 * DEWRITE_FORCE_DCHECKS to keep them in an optimized build (the
 * sanitize CI job, ASan + UBSan, does).
 *
 * Both macros evaluate @p cond exactly once and the message arguments
 * not at all on the success path.
 */

#ifndef DEWRITE_COMMON_CHECK_HH
#define DEWRITE_COMMON_CHECK_HH

#include <cstdint>

#include "common/logging.hh"

#define DEWRITE_CHECK(cond, ...)                                        \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::dewrite::detail::checkFailed(__FILE__, __LINE__, #cond,   \
                                           __VA_ARGS__);                \
        }                                                               \
    } while (false)

#if !defined(NDEBUG) || defined(DEWRITE_FORCE_DCHECKS)
#define DEWRITE_DCHECK(cond, ...) DEWRITE_CHECK(cond, __VA_ARGS__)
#else
#define DEWRITE_DCHECK(cond, ...)                                       \
    do {                                                                \
    } while (false)
#endif

namespace dewrite {
namespace detail {

/** Formats the context and panics. Never returns. */
[[noreturn]] void checkFailed(const char *file, int line,
                              const char *condition, const char *fmt,
                              ...) __attribute__((format(printf, 4, 5)));

} // namespace detail

/**
 * Increments the 32-bit per-line count @p count (a wear count, a secure
 * baseline counter) and returns the new value, panicking instead of
 * wrapping: a wrapped encryption counter would reuse a pad and read as
 * unwritten. @p what and @p line name the count in the report.
 */
inline std::uint32_t
checkedIncrement(std::uint32_t &count, const char *what, std::uint64_t line)
{
    DEWRITE_CHECK(count != UINT32_MAX,
                  "%s of line %llu would wrap past 2^32 - 1", what,
                  static_cast<unsigned long long>(line));
    return ++count;
}

} // namespace dewrite

#endif // DEWRITE_COMMON_CHECK_HH
