/**
 * @file
 * Aggregate throughput of the sharded multi-tenant dedup service.
 *
 * Runs the DedupService over a bursty 16-tenant mix at shard counts
 * {1, 2, 4, 8} — each with as many worker threads as shards — and
 * reports aggregate host events/sec per configuration, plus the
 * speedup of every configuration over the 1-shard/1-thread baseline.
 *
 * Every configuration is also parity-checked in-process: each shard's
 * result fingerprint must equal an independent single-shard System run
 * over the same trace partition (DedupService::runShardReference). A
 * parity mismatch is a correctness bug: it prints each diverging
 * shard's service and reference fingerprints to stderr and exits
 * non-zero; a low speedup is not. Parallel speedup needs as many host
 * cores as threads, so the table is followed by the host CPU count.
 *
 * Events come from DEWRITE_EVENTS (default 120000); --quick runs 20x
 * shorter with the same shape.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/table_printer.hh"
#include "service/dedup_service.hh"
#include "sim/experiment.hh"

using namespace dewrite;

namespace {

struct ShardRow
{
    std::uint64_t events = 0;
    std::uint32_t serviceFingerprint = 0;
    std::uint32_t referenceFingerprint = 0;
};

struct ConfigRow
{
    std::size_t shards = 0;
    unsigned threads = 0;
    std::uint64_t totalEvents = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    std::vector<ShardRow> perShard;

    bool
    parityOk() const
    {
        for (const ShardRow &row : perShard)
            if (row.serviceFingerprint != row.referenceFingerprint)
                return false;
        return true;
    }
};

ServiceOptions
benchOptions(std::size_t shards, std::uint64_t events)
{
    ServiceOptions options;
    options.shards = shards;
    options.threads = static_cast<unsigned>(shards);
    options.tenants = 16;
    options.linesPerTenant = 4096;
    options.burstMax = 32;
    options.roundEvents = 4096;
    options.totalEvents = events;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const std::uint64_t events =
        quick ? experimentEvents() / 20 : experimentEvents();

    std::printf("Sharded dedup service: %llu events, 16 tenants, "
                "shards x threads sweep\n\n",
                static_cast<unsigned long long>(events));

    std::vector<ConfigRow> rows;
    bool parity_ok = true;
    for (const std::size_t shards : { 1u, 2u, 4u, 8u }) {
        const ServiceOptions options = benchOptions(shards, events);
        DedupService service(options);
        const ServiceResult result = service.run();

        ConfigRow row;
        row.shards = shards;
        row.threads = result.threads;
        row.totalEvents = result.totalEvents;
        row.wallSeconds = result.hostSeconds;
        row.eventsPerSec = result.eventsPerSecond;
        for (std::size_t k = 0; k < result.shards.size(); ++k) {
            ShardRow shard;
            shard.events = result.shards[k].events;
            shard.serviceFingerprint = result.shards[k].fingerprint;
            shard.referenceFingerprint = resultFingerprint(
                DedupService::runShardReference(options, k,
                                                shard.events));
            row.perShard.push_back(shard);
        }
        parity_ok = parity_ok && row.parityOk();
        rows.push_back(std::move(row));
    }

    const double base_eps = rows.front().eventsPerSec;
    TablePrinter table({ "shards", "threads", "events", "wall (s)",
                         "events/sec", "speedup", "parity" });
    for (const ConfigRow &row : rows) {
        table.addRow({ std::to_string(row.shards),
                       std::to_string(row.threads),
                       std::to_string(row.totalEvents),
                       TablePrinter::num(row.wallSeconds),
                       TablePrinter::num(row.eventsPerSec, 0),
                       base_eps > 0
                           ? TablePrinter::num(row.eventsPerSec /
                                                   base_eps,
                                               2)
                           : "-",
                       row.parityOk() ? "ok" : "MISMATCH" });
    }
    table.print();
    std::printf("\nhost CPUs: %u (speedup needs as many cores as "
                "threads)\n",
                std::thread::hardware_concurrency());

    if (!parity_ok) {
        for (const ConfigRow &row : rows) {
            for (std::size_t k = 0; k < row.perShard.size(); ++k) {
                const ShardRow &shard = row.perShard[k];
                if (shard.serviceFingerprint == shard.referenceFingerprint)
                    continue;
                std::fprintf(stderr,
                             "%zu shards: shard %zu service %08x "
                             "reference %08x\n",
                             row.shards, k, shard.serviceFingerprint,
                             shard.referenceFingerprint);
            }
        }
        std::fprintf(stderr,
                     "PARITY MISMATCH: a shard diverged from its "
                     "independent reference run\n");
        return 1;
    }
    return 0;
}
