/**
 * @file
 * The service section of every per-layer measurement: DedupService in
 * the service-3shard shape (3 shards on 3 pool threads plus the
 * producing main thread, 16 tenants x 4096 lines, bursts of at most 32
 * events, 4096-event rounds), running DeWrite.
 *
 * The service runs a few times for its wall time, and every shard is
 * checked against DedupService::runShardReference. Then the same
 * canonical order is replayed on one thread, timing produce (TenantMux
 * and ShardRouter) and drain (each ShardCore); the replay's shard
 * fingerprints must equal the service's.
 *
 * The tenant streams are seeded by DedupService::resolveTenants from
 * the application names, and ServiceOptions takes no seed, so --seed
 * and the workload do not change this section's inputs.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include "cpu/core_model.hh"
#include "harness.hh"
#include "obs/stage_profile.hh"
#include "service/dedup_service.hh"
#include "service/shard_core.hh"
#include "service/shard_router.hh"
#include "service/tenant_mux.hh"
#include "sim/system.hh"

namespace dwbench {

using namespace dewrite;

namespace {

/** Well past the fill phase (every tenant line written once). */
constexpr std::uint64_t kEvents = 2'000'000;
/** Service runs whose median wall time produce_share divides by. */
constexpr int kServiceRuns = 3;

ServiceOptions
serviceOptions(const Options &options)
{
    ServiceOptions service;
    service.shards = 3;
    service.tenants = 16;
    service.linesPerTenant = options.tiny ? 256 : 4096;
    service.burstMax = 32;
    service.roundEvents = 4096;
    service.totalEvents = options.tiny ? 60'000 : kEvents;
    service.threads = 3;
    service.scheme = comparedSchemes()[0].options;
    return service;
}

/** Every shard against an independent single-shard System run. */
void
checkShardParity(Report &report, const Options &options,
                 const ServiceOptions &service, const ServiceResult &result)
{
    std::vector<std::uint32_t> reference(result.shards.size());
    std::vector<std::thread> workers;
    for (std::size_t k = 0; k < result.shards.size(); ++k) {
        std::uint64_t events = result.shards[k].events;
        // A seeded parity fault: the reference replays one event more.
        if (options.fault == Options::Fault::Parity && k == 0)
            ++events;
        workers.emplace_back([&service, &reference, k, events] {
            reference[k] = resultFingerprint(
                DedupService::runShardReference(service, k, events));
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < result.shards.size(); ++k)
        failed += reference[k] != result.shards[k].fingerprint;
    report.checks(result.shards.size(), failed, "service shard parity");
}

/** The shard cell DedupService::finalizeShard builds, with the averages
 * taken from the shard's own controller. */
ExperimentResult
shardCell(std::size_t shard, const System &system, RunResult core_run)
{
    const MemController &controller = system.controller();
    core_run.avgWriteLatencyNs = controller.avgWriteLatency() / kNanoSecond;
    core_run.avgReadLatencyNs = controller.avgReadLatency() / kNanoSecond;
    core_run.totalEnergy = system.totalEnergy();
    core_run.nvmLineWrites = system.device().numWrites();
    core_run.nvmLineReads = system.device().numReads();
    core_run.bitsProgrammed = controller.dataBitsProgrammed();

    ExperimentResult cell;
    cell.app = "shard" + std::to_string(shard);
    cell.scheme = controller.name();
    cell.run = core_run;
    controller.fillStats(cell.stats);
    cell.metrics = system.registry().snapshot();
    return cell;
}

/** What the single-thread replay measured. */
struct ServiceReplay
{
    std::vector<std::uint32_t> fingerprints; //!< Per shard.
    std::uint64_t produceTicks = 0;          //!< Mux and router.
    std::uint64_t drainTicks = 0;            //!< ShardCore::feed, all shards.
};

/**
 * Replays @p service on one thread in its canonical order: TenantMux
 * and ShardRouter produce each round, then one ShardCore per shard
 * drains it, as DedupService::run does with its pool.
 */
ServiceReplay
replayService(const ServiceOptions &service)
{
    const std::uint64_t total = service.totalEvents;
    const ShardRouter router(service.shards, service.tenants,
                             service.linesPerTenant);
    TenantMux mux(DedupService::resolveTenants(service), service.burstMax);
    const SystemConfig config = router.shardConfig(service.base, total);
    const std::size_t batch = writeBatchSize();

    struct Shard
    {
        std::unique_ptr<System> system;
        std::unique_ptr<ShardCore> core;
        std::vector<MemEvent> buffer;
    };
    std::vector<Shard> shards(service.shards);
    for (Shard &shard : shards) {
        shard.system = std::make_unique<System>(config, service.scheme);
        shard.core = std::make_unique<ShardCore>(
            shard.system->config().timing, shard.system->controller(), batch);
        shard.buffer.reserve(service.roundEvents);
    }

    ServiceReplay out;
    MemEvent event;
    std::uint64_t tenant = 0;
    for (std::uint64_t produced = 0; produced < total;) {
        const std::uint64_t round =
            std::min(service.roundEvents, total - produced);
        std::uint64_t start = obs::stageClock();
        for (Shard &shard : shards)
            shard.buffer.clear();
        for (std::uint64_t i = 0; i < round; ++i) {
            mux.next(event, tenant);
            const std::uint64_t g = router.globalKey(tenant, event.addr);
            Shard &shard = shards[router.shardOf(g)];
            event.addr = router.localAddr(g);
            shard.buffer.push_back(event);
        }
        out.produceTicks += obs::stageClock() - start;
        produced += round;

        start = obs::stageClock();
        for (Shard &shard : shards)
            shard.core->feed(shard.buffer.data(), shard.buffer.size());
        out.drainTicks += obs::stageClock() - start;
    }
    for (std::size_t k = 0; k < shards.size(); ++k) {
        out.fingerprints.push_back(resultFingerprint(
            shardCell(k, *shards[k].system, shards[k].core->finish())));
    }
    return out;
}

} // namespace

void
runServiceSection(const Options &options, Report &report)
{
    const ServiceOptions service = serviceOptions(options);
    ServiceResult first;
    double skew_cv = 0.0;
    std::vector<double> walls;
    for (int run = 0; run < kServiceRuns; ++run) {
        DedupService svc(service);
        const ServiceResult result = svc.run();
        walls.push_back(result.hostSeconds);
        if (run == 0) {
            first = result;
            skew_cv = svc.skewMonitor().totalStats().cv;
            continue;
        }
        for (std::size_t k = 0; k < result.shards.size(); ++k) {
            report.check(result.shards[k].fingerprint ==
                             first.shards[k].fingerprint,
                         "service shard result repeats exactly");
        }
    }
    checkShardParity(report, options, service, first);

    const ServiceReplay replay = replayService(service);
    for (std::size_t k = 0; k < first.shards.size(); ++k) {
        report.check(k < replay.fingerprints.size() &&
                         replay.fingerprints[k] == first.shards[k].fingerprint,
                     "service replay equals the service");
    }

    const double ns_per_tick = 1.0 / ticksPerNs();
    const double events = static_cast<double>(service.totalEvents);
    report.metric("service.produce_ns_per_event",
                  replay.produceTicks * ns_per_tick / events, "ns/event");
    report.metric("service.drain_ns_per_event",
                  replay.drainTicks * ns_per_tick / events, "ns/event");
    report.metric("service.produce_share",
                  replay.produceTicks * ns_per_tick * 1e-9 / median(walls),
                  "ratio");
    report.metric("service.skew_cv", skew_cv, "ratio");
}

} // namespace dwbench
