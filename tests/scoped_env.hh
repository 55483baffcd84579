/**
 * @file
 * ScopedEnv: sets one environment variable for a scope, then restores
 * its previous value (or unsets it), so a knob test leaves the process
 * environment as it found it.
 */

#ifndef DEWRITE_TESTS_SCOPED_ENV_HH
#define DEWRITE_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>

#include "common/env.hh"

namespace dewrite {

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = envRaw(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

} // namespace dewrite

#endif // DEWRITE_TESTS_SCOPED_ENV_HH
