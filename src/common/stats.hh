/**
 * @file
 * Lightweight statistics primitives: event counters and a flat set of
 * named results.
 *
 * Every simulated component accumulates its activity in Stat objects;
 * the experiment harnesses read them back to print the paper's tables
 * and figures.
 */

#ifndef DEWRITE_COMMON_STATS_HH
#define DEWRITE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace dewrite {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A flat registry of named numeric results, used by components to expose
 * their counters to harnesses without hard-wiring every field name.
 */
class StatSet
{
  public:
    void set(const std::string &name, double value);
    void add(const std::string &name, double delta);

    /** Returns the value, or 0 if the stat was never set. */
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    const std::map<std::string, double> &all() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

} // namespace dewrite

#endif // DEWRITE_COMMON_STATS_HH
