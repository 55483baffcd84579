/**
 * @file
 * DedupService implementation.
 */

#include "service/dedup_service.hh"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/check.hh"
#include "common/dense_line_store.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"

namespace dewrite {

namespace {

/** Applies the shared defaults to every zero-valued option. */
ServiceOptions
resolved(const ServiceOptions &options)
{
    ServiceOptions opts = options;
    if (opts.totalEvents == 0)
        opts.totalEvents = experimentEvents();
    if (opts.threads == 0)
        opts.threads = runnerThreads();
    DEWRITE_CHECK(opts.roundEvents >= 1,
                  "service rounds need at least one event");
    return opts;
}

} // namespace

std::vector<TenantSpec>
DedupService::resolveTenants(const ServiceOptions &options)
{
    const std::vector<AppProfile> &catalog = appCatalog();
    std::vector<TenantSpec> tenants;
    tenants.reserve(options.tenants);
    for (std::uint64_t t = 0; t < options.tenants; ++t) {
        TenantSpec spec;
        spec.profile = catalog[t % catalog.size()];
        // Uniform namespaces keep the router's fold exact whatever mix
        // of applications the tenants run.
        spec.profile.workingSetLines = options.linesPerTenant;
        spec.seed = appSeed(spec.profile) + t;
        tenants.push_back(std::move(spec));
    }
    return tenants;
}

DedupService::DedupService(const ServiceOptions &options)
    : options_(resolved(options)), totalEvents_(options_.totalEvents),
      tenants_(resolveTenants(options_)),
      router_(options_.shards, options_.tenants,
              options_.linesPerTenant),
      mux_(tenants_, options_.burstMax), shards_(options_.shards),
      pool_(options_.threads), skew_(options_.shards),
      roundCounts_(options_.shards, 0)
{
    // Every shard of a run must agree on the batch capacity even if
    // the environment changes mid-run, so resolve it exactly once.
    const std::size_t batch = writeBatchSize();
    const SystemConfig config =
        router_.shardConfig(options_.base, totalEvents_);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        Shard &shard = shards_[k];
        shard.system = std::make_unique<System>(config, options_.scheme);
        shard.core = std::make_unique<ShardCore>(
            shard.system->config().timing, shard.system->controller(),
            batch);
    }

    serviceRegistry_.addCounter("service.rounds", roundsIngested_,
                                "ingest/drain rounds executed");
    serviceRegistry_.addGauge(
        "service.shards",
        [this] { return static_cast<double>(shards_.size()); },
        "configured shard count");
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        obs::MetricRegistry::Scope scope = serviceRegistry_.scope(
            "shard" + std::to_string(k) + ".ingest");
        scope.gauge("events_routed",
                    [this, k] {
                        return static_cast<double>(shards_[k].events);
                    },
                    "events the router sent this shard");
        shards_[k].core->former().registerMetrics(scope.scope("batch"));
    }

    // Shard-skew watch: the trigger inputs for the ROADMAP's
    // rebalancing item, refreshed every drain round.
    obs::MetricRegistry::Scope skew = serviceRegistry_.scope(
        "service.skew");
    skew.gauge("round_min",
               [this] {
                   return static_cast<double>(skew_.lastRound().min);
               },
               "fewest events any shard drained last round");
    skew.gauge("round_max",
               [this] {
                   return static_cast<double>(skew_.lastRound().max);
               },
               "most events any shard drained last round");
    skew.gauge("round_mean", [this] { return skew_.lastRound().mean; },
               "mean events/shard last round");
    skew.gauge("round_cv", [this] { return skew_.lastRound().cv; },
               "events/shard coefficient of variation, last round");
    skew.gauge("total_cv", [this] { return skew_.totalStats().cv; },
               "events/shard CV over the whole run");
}

std::uint64_t
DedupService::fillRound(int side)
{
    // Single-threaded by design: the canonical order is defined by the
    // mux, and routing must preserve it per shard. The pool drains the
    // *previous* round concurrently, which is where the overlap (and
    // the speedup) comes from.
    for (Shard &shard : shards_)
        shard.buffers[side].clear();

    std::uint64_t produced = 0;
    MemEvent event;
    std::uint64_t tenant = 0;
    while (produced < options_.roundEvents &&
           produced_ < totalEvents_) {
        mux_.next(event, tenant);
        const std::uint64_t g = router_.globalKey(tenant, event.addr);
        const std::size_t shard = router_.shardOf(g);
        event.addr = router_.localAddr(g);
        shards_[shard].buffers[side].push_back(event);
        ++produced;
        ++produced_;
    }
    return produced;
}

// dewrite-analyze: root(shard-isolation)
ShardOutcome
DedupService::finalizeShard(std::size_t shard_index)
{
    Shard &shard = shards_[shard_index];
    ShardOutcome outcome;
    outcome.events = shard.events;
    outcome.cell =
        makeResult("shard" + std::to_string(shard_index), *shard.system,
                   shard.system->finishRun(shard.core->finish()));
    outcome.fingerprint = resultFingerprint(outcome.cell);
    return outcome;
}

ServiceResult
DedupService::run()
{
    // dewrite-analyze: allow(determinism) host wall-clock feeds only the
    // events/sec report, never simulated state
    const auto host_start = std::chrono::steady_clock::now();

    int side = 0;
    std::uint64_t filled = fillRound(side);
    while (filled > 0) {
        for (Shard &shard : shards_) {
            std::vector<MemEvent> &buffer = shard.buffers[side];
            if (buffer.empty())
                continue;
            shard.events += buffer.size();
            // One task per shard per round: the task is the only
            // toucher of its shard until wait(), so the drain needs no
            // synchronization beyond ordering its streamed device lines
            // before the task ends (the next round may run elsewhere).
            Shard *owned = &shard;
            pool_.submit([owned, side] {
                owned->core->feed(owned->buffers[side].data(),
                                  owned->buffers[side].size());
                fenceStreamedLines();
            });
        }
        roundsIngested_.increment();
        const int next = side ^ 1;
        // Overlap: produce the next round while the pool drains this
        // one, then the barrier hands the buffers over.
        const std::uint64_t next_filled = fillRound(next);
        pool_.wait();

        // Post-barrier: the drained buffers are quiescent, so the
        // main thread may read them.
        for (std::size_t k = 0; k < shards_.size(); ++k)
            roundCounts_[k] = shards_[k].buffers[side].size();
        skew_.noteRound(roundCounts_);

        side = next;
        filled = next_filled;
    }

    ServiceResult result;
    result.shards.resize(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        pool_.submit([this, k, &result] {
            result.shards[k] = finalizeShard(k);
        });
    }
    pool_.wait();

    result.totalEvents = produced_;
    result.hostSeconds =
        // dewrite-analyze: allow(determinism) host wall-clock feeds only the
        // events/sec report, never simulated state
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    result.eventsPerSecond = result.hostSeconds > 0.0
        ? static_cast<double>(result.totalEvents) / result.hostSeconds
        : 0.0;
    result.shardCount = shards_.size();
    result.threads = pool_.threadCount();
    return result;
}

std::vector<obs::MetricSample>
DedupService::registrySnapshot() const
{
    std::vector<obs::MetricSample> merged = serviceRegistry_.snapshot();
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        const std::string prefix = "shard" + std::to_string(k) + ".";
        for (obs::MetricSample sample :
             shards_[k].system->registry().snapshot()) {
            sample.path = prefix + sample.path;
            merged.push_back(std::move(sample));
        }
    }
    std::sort(merged.begin(), merged.end(),
              [](const obs::MetricSample &a, const obs::MetricSample &b) {
                  return a.path < b.path;
              });
    return merged;
}

ExperimentResult
DedupService::runShardReference(const ServiceOptions &options,
                                std::size_t shard, std::uint64_t events)
{
    const ServiceOptions opts = resolved(options);
    const std::vector<TenantSpec> tenants = resolveTenants(opts);
    const ShardRouter router(opts.shards, opts.tenants,
                             opts.linesPerTenant);
    DEWRITE_CHECK(shard < router.shards(), "shard %zu of %zu", shard,
                  router.shards());

    ShardPartitionTrace trace(tenants, opts.burstMax, router, shard);
    System system(router.shardConfig(opts.base, opts.totalEvents),
                  opts.scheme);
    const RunResult run = system.run(trace, events);
    return makeResult("shard" + std::to_string(shard), system, run);
}

} // namespace dewrite
