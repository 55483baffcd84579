/**
 * @file
 * Figure 12 — NVM write reduction achieved by DeWrite.
 *
 * For each application: the ground-truth duplicate fraction (the upper
 * bound), the fraction of write-backs DeWrite eliminated, and the gap
 * decomposition the paper reports — duplicates missed by PNA and by
 * reference saturation, and the extra NVM writes from metadata-cache
 * dirty evictions.
 *
 * Paper's shape: 54% mean reduction vs 58% mean duplication; ~1.5%
 * missed duplicates, ~2.6% extra metadata writes.
 */

#include <cstdio>

#include "common/table_printer.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"
#include "trace/workload_stats.hh"

using namespace dewrite;

int
main()
{
    std::printf("Figure 12: write reduction on secure NVMM\n\n");

    SystemConfig config;
    const std::vector<AppProfile> &apps = appCatalog();
    std::vector<WorkloadStats> truths(apps.size());
    std::vector<ExperimentResult> results(apps.size());
    parallelFor(apps.size(), [&](std::size_t a) {
        SyntheticWorkload truth_trace(apps[a], appSeed(apps[a]));
        truths[a] = measureWorkload(truth_trace, experimentEvents());
        results[a] =
            runApp(apps[a], config, dewriteScheme(DedupMode::Predicted));
    });

    TablePrinter table({ "app", "dup truth", "eliminated", "missed",
                         "metadata wr", "net reduction" });
    double truth_sum = 0, elim_sum = 0, net_sum = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const WorkloadStats &truth = truths[a];
        const ExperimentResult &r = results[a];

        const double writes = static_cast<double>(r.run.writes);
        const double eliminated =
            static_cast<double>(r.run.writesEliminated) / writes;
        const double missed = (r.stats.get("missed_by_pna") +
                               r.stats.get("missed_by_saturation")) /
                              writes;
        // Metadata writebacks program one 128-bit block of a line
        // (direct re-encryption granularity), so they weigh 1/16 of a
        // full-line data write.
        const double metadata_line_equiv =
            r.stats.get("metadata_writebacks") *
            (static_cast<double>(kAesBlockSize * 8) / kLineBits);
        const double metadata_writes = metadata_line_equiv / writes;
        // Net line writes: data lines written plus metadata writeback
        // equivalents, versus one full line per write in the baseline.
        const double net =
            1.0 - (writes - r.run.writesEliminated +
                   metadata_line_equiv) /
                      writes;

        truth_sum += truth.dupFraction();
        elim_sum += eliminated;
        net_sum += net;
        table.addRow({ apps[a].name,
                       TablePrinter::percent(truth.dupFraction()),
                       TablePrinter::percent(eliminated),
                       TablePrinter::percent(missed),
                       TablePrinter::percent(metadata_writes),
                       TablePrinter::percent(net) });
    }
    const double n = static_cast<double>(appCatalog().size());
    table.addRow({ "AVERAGE", TablePrinter::percent(truth_sum / n),
                   TablePrinter::percent(elim_sum / n), "-", "-",
                   TablePrinter::percent(net_sum / n) });
    table.print();

    std::printf("\npaper: 54%% mean reduction vs 58%% duplication; "
                "~1.5%% missed, ~2.6%% metadata writes\n");
    return 0;
}
