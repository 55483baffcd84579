/**
 * @file
 * Statistics implementation.
 */

#include "common/stats.hh"

#include <algorithm>

namespace dewrite {

void
Accumulator::add(double sample)
{
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
}

void
Accumulator::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
StatSet::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
StatSet::add(const std::string &name, double delta)
{
    values_[name] += delta;
}

double
StatSet::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return values_.contains(name);
}

} // namespace dewrite
