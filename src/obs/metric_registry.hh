/**
 * @file
 * Hierarchical metric registry: every component's counters under one
 * dotted namespace.
 *
 * Components own their stat primitives (a Counter from
 * common/stats.hh, or a computed gauge) exactly as before; the
 * registry holds typed, non-owning references to them under component
 * paths ("controller.dedup.duplicate_commits",
 * "cache.metadata.hit_rate.mapping", ...). Registration happens once
 * at wiring time, so the hot path is untouched — reading a snapshot
 * walks the registered references.
 *
 * Two read-side views:
 *  - snapshot(): deterministic (path-sorted) list of samples, the
 *    simulator's one machine-readable view (every ExperimentResult
 *    carries one, and dwbench reads it);
 *  - fillStatSet(): the legacy flat StatSet view. Entries registered
 *    with a legacy name reproduce the historical StatSet keys
 *    byte-for-byte, which keeps the golden-parity fingerprints and
 *    every stats.get() call site working unchanged.
 *
 * Paths must be unique; a collision is a wiring bug and panics.
 */

#ifndef DEWRITE_OBS_METRIC_REGISTRY_HH
#define DEWRITE_OBS_METRIC_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace dewrite::obs {

/** What kind of primitive a registry entry references. */
enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
};

/** One read-only view of a registered metric at snapshot time. */
struct MetricSample
{
    std::string path;
    MetricKind kind = MetricKind::Gauge;
    double value = 0.0; //!< Counter or gauge value.

    bool operator==(const MetricSample &other) const = default;
};

class MetricRegistry
{
  public:
    /** A registered metric: a typed, non-owning reference. */
    struct Entry
    {
        std::string path;
        std::string desc;
        std::string legacy; //!< StatSet-compat key ("" = not exported).
        MetricKind kind = MetricKind::Gauge;

        const dewrite::Counter *counter = nullptr;
        std::function<double()> gauge;

        /** Primary scalar of the metric (see MetricSample::value). */
        double read() const;
    };

    /** @{ Registration. @p legacy names the StatSet-compat key. */
    void addCounter(std::string path, const dewrite::Counter &counter,
                    std::string desc, std::string legacy = "");
    void addGauge(std::string path, std::function<double()> fn,
                  std::string desc, std::string legacy = "");
    /** @} */

    /**
     * Attaches a legacy StatSet name to the already-registered @p path.
     * Used where the historical flat name belongs to a metric whose
     * canonical registration lives in a shared base class.
     */
    void aliasLegacy(const std::string &path, std::string legacy);

    bool has(const std::string &path) const;
    const Entry *find(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /** All entries in registration order (iteration for reporters). */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Path-sorted, deterministic point-in-time view. */
    std::vector<MetricSample> snapshot() const;

    /** Legacy flat view: one stats.set(legacy, value) per aliased entry. */
    void fillStatSet(StatSet &out) const;

    /** Registration helper that prefixes every path with "<prefix>.". */
    class Scope
    {
      public:
        Scope(MetricRegistry &registry, std::string prefix)
            : registry_(registry), prefix_(std::move(prefix))
        {
        }

        Scope scope(const std::string &sub) const
        {
            return Scope(registry_, prefix_ + "." + sub);
        }

        void counter(const std::string &name,
                     const dewrite::Counter &c, std::string desc,
                     std::string legacy = "")
        {
            registry_.addCounter(prefix_ + "." + name, c,
                                 std::move(desc), std::move(legacy));
        }

        void gauge(const std::string &name, std::function<double()> fn,
                   std::string desc, std::string legacy = "")
        {
            registry_.addGauge(prefix_ + "." + name, std::move(fn),
                               std::move(desc), std::move(legacy));
        }

        const std::string &prefix() const { return prefix_; }
        MetricRegistry &registry() const { return registry_; }

      private:
        MetricRegistry &registry_;
        std::string prefix_;
    };

    Scope scope(std::string prefix) { return Scope(*this, std::move(prefix)); }

  private:
    Entry &insert(std::string path, std::string desc, std::string legacy,
                  MetricKind kind);

    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> byPath_;
};

} // namespace dewrite::obs

#endif // DEWRITE_OBS_METRIC_REGISTRY_HH
