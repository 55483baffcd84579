/**
 * @file
 * MetricRegistry implementation.
 */

#include "obs/metric_registry.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dewrite::obs {

double
MetricRegistry::Entry::read() const
{
    switch (kind) {
      case MetricKind::Counter:
        return static_cast<double>(counter->value());
      case MetricKind::Gauge:
        return gauge();
    }
    panic("bad metric kind");
}

MetricRegistry::Entry &
MetricRegistry::insert(std::string path, std::string desc,
                       std::string legacy, MetricKind kind)
{
    if (path.empty())
        panic("metric path must not be empty");
    const auto [it, fresh] = byPath_.emplace(path, entries_.size());
    if (!fresh)
        panic("metric path collision: \"%s\"", path.c_str());
    // dewrite-analyze: allow(hot-path-purity) registration happens at construction time; the hot
    // edge is a name-collision over-approximation (insert)
    Entry &entry = entries_.emplace_back();
    entry.path = std::move(path);
    entry.desc = std::move(desc);
    entry.legacy = std::move(legacy);
    entry.kind = kind;
    return entry;
}

void
MetricRegistry::addCounter(std::string path,
                           const dewrite::Counter &counter,
                           std::string desc, std::string legacy)
{
    insert(std::move(path), std::move(desc), std::move(legacy),
           MetricKind::Counter)
        .counter = &counter;
}

void
MetricRegistry::addGauge(std::string path, std::function<double()> fn,
                         std::string desc, std::string legacy)
{
    insert(std::move(path), std::move(desc), std::move(legacy),
           MetricKind::Gauge)
        .gauge = std::move(fn);
}

void
MetricRegistry::aliasLegacy(const std::string &path, std::string legacy)
{
    const auto it = byPath_.find(path);
    if (it == byPath_.end())
        panic("aliasLegacy: no metric at \"%s\"", path.c_str());
    Entry &entry = entries_[it->second];
    if (!entry.legacy.empty())
        panic("aliasLegacy: \"%s\" already has legacy name \"%s\"",
              path.c_str(), entry.legacy.c_str());
    entry.legacy = std::move(legacy);
}

bool
MetricRegistry::has(const std::string &path) const
{
    return byPath_.contains(path);
}

const MetricRegistry::Entry *
MetricRegistry::find(const std::string &path) const
{
    const auto it = byPath_.find(path);
    return it == byPath_.end() ? nullptr : &entries_[it->second];
}

std::vector<MetricSample>
MetricRegistry::snapshot() const
{
    std::vector<MetricSample> samples;
    samples.reserve(entries_.size());
    for (const Entry &entry : entries_)
        samples.push_back({ entry.path, entry.kind, entry.read() });
    std::sort(samples.begin(), samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.path < b.path;
              });
    return samples;
}

void
MetricRegistry::fillStatSet(StatSet &out) const
{
    for (const Entry &entry : entries_) {
        if (!entry.legacy.empty())
            out.set(entry.legacy, entry.read());
    }
}

} // namespace dewrite::obs
