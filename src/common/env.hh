/**
 * @file
 * Fail-fast access to the DEWRITE_* environment contract.
 *
 * Every configuration knob the simulator reads from the environment
 * goes through these helpers so that a typo'd value dies loudly with
 * the variable name and the accepted range instead of being silently
 * misparsed (strtoull happily reads "12k" as 12). dewrite-analyze's
 * env rules enforce the funnel: std::getenv may appear only in this
 * module, so a new DEWRITE_* variable cannot ship without strict
 * parsing.
 *
 * All helpers latch nothing: they re-read the environment on every
 * call, which keeps them testable with setenv/unsetenv.
 */

#ifndef DEWRITE_COMMON_ENV_HH
#define DEWRITE_COMMON_ENV_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dewrite {

/**
 * Raw variable lookup (nullptr when unset), for code that saves and
 * restores a variable (the tests' ScopedEnv); read knobs through
 * envFlag()/envUint(), which validate them.
 */
const char *envRaw(const char *name);

/**
 * Strict boolean switch: unset returns @p fallback; "0" and "1" parse;
 * anything else is rejected with fatal(). The 0/1-only contract keeps
 * shell typos ("yes", "ture") from silently disabling an audit the
 * user asked for.
 */
bool envFlag(const char *name, bool fallback);

/**
 * Strict unsigned integer in [@p min, @p max]: unset returns
 * @p fallback; malformed, negative, trailing-garbage, overflowing, or
 * out-of-range values are rejected with fatal() naming the variable
 * and the accepted range.
 */
std::uint64_t envUint(const char *name, std::uint64_t fallback,
                      std::uint64_t min, std::uint64_t max);

/**
 * Every DEWRITE_* environment knob the simulator recognizes, sorted:
 * the one knob catalogue. rejectUnknownKnobs() refuses any other
 * DEWRITE_* name at run time, and dewrite-analyze's env-knob-registry
 * rule refuses any other name passed to an env call in the tree.
 */
const std::vector<const char *> &knownKnobs();

/**
 * Rejects with fatal(), naming the variable, any DEWRITE_* variable
 * in the environment that knownKnobs() does not list — a typo, or a
 * knob that was retired and would otherwise be ignored silently.
 */
void rejectUnknownKnobs();

} // namespace dewrite

#endif // DEWRITE_COMMON_ENV_HH
