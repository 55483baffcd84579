/**
 * @file
 * Environment helpers implementation — the only std::getenv call sites
 * in the tree (enforced by dewrite-analyze's env-getenv-funnel rule).
 */

#include "common/env.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/logging.hh"

namespace dewrite {

const char *
envRaw(const char *name)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): knobs are read once at
    // startup, before any worker thread exists; nothing calls setenv
    // concurrently (tests set knobs from their single driver thread).
    return std::getenv(name);
}

bool
envFlag(const char *name, bool fallback)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): see envRaw above.
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    if (std::strcmp(value, "0") == 0)
        return false;
    if (std::strcmp(value, "1") == 0)
        return true;
    fatal("%s=\"%s\" is not 0 or 1", name, value);
}

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t min,
        std::uint64_t max)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): see envRaw above.
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-')
        fatal("%s=\"%s\" is not a non-negative integer", name, value);
    if (errno == ERANGE || parsed < min || parsed > max) {
        fatal("%s=\"%s\" out of range (%llu..%llu)", name, value,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(max));
    }
    return parsed;
}

const std::vector<const char *> &
knownKnobs()
{
    // Keep sorted; tools/dewrite_analyze.py reads its catalogue from
    // the names listed here.
    static const std::vector<const char *> knobs = {
        "DEWRITE_AUDIT",
        "DEWRITE_AUDIT_EPOCH",
        "DEWRITE_BATCH",
        "DEWRITE_EVENTS",
        "DEWRITE_STAGE_PROFILE",
        "DEWRITE_THREADS",
    };
    return knobs;
}

void
rejectUnknownKnobs()
{
    // Same single-threaded start-up contract as envRaw above.
    const std::vector<const char *> &knobs = knownKnobs();
    for (char **entry = environ; *entry; ++entry) {
        const std::string_view var(*entry);
        const std::string_view name = var.substr(0, var.find('='));
        if (!name.starts_with("DEWRITE_"))
            continue;
        if (std::none_of(knobs.begin(), knobs.end(),
                         [&](const char *knob) { return name == knob; })) {
            fatal("%.*s is not a known DEWRITE_* knob (typo or retired)",
                  static_cast<int>(name.size()), name.data());
        }
    }
}

} // namespace dewrite
