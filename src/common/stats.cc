/**
 * @file
 * Statistics implementation.
 */

#include "common/stats.hh"

namespace dewrite {

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
