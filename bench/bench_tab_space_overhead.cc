/**
 * @file
 * Section IV-E1 — metadata storage overhead.
 *
 * Computes the NVM space each metadata structure occupies relative to
 * the data capacity, compares with DEUCE's metadata, and reports the
 * counter-colocation outcome: how many counters had to spill outside
 * both entries (the corner the paper's "one of the two entries is
 * null" observation misses; see DESIGN.md Section 4b).
 *
 * Paper's shape: ~6.25% total for DeWrite (and no separate counter
 * table); DEUCE pays 6.25% flags + 28 bits/line of counters.
 */

#include <cstdio>

#include "cache/metadata_cache.hh"
#include "common/table_printer.hh"
#include "controller/dewrite_controller.hh"
#include "sim/experiment.hh"
#include "trace/app_catalog.hh"

using namespace dewrite;

int
main()
{
    std::printf("Metadata storage overhead (Section IV-E1)\n\n");

    // Static layout: bits per 256 B (2048-bit) line of data.
    TablePrinter layout({ "structure", "per line", "fraction" });
    const double line_bits = kLineBits;
    const struct
    {
        const char *name;
        double bits;
    } rows[] = {
        { "address mapping (4B + flag)", 33 },
        { "inverted hash (4B + flag)", 33 },
        { "hash store (9B entry)", 72 },
        { "FSM bitmap", 1 },
    };
    double total_bits = 0;
    for (const auto &row : rows) {
        total_bits += row.bits;
        layout.addRow({ row.name,
                        TablePrinter::num(row.bits, 0) + " bits",
                        TablePrinter::percent(row.bits / line_bits) });
    }
    layout.addRow({ "DeWrite total (counters colocated)",
                    TablePrinter::num(total_bits, 0) + " bits",
                    TablePrinter::percent(total_bits / line_bits) });
    layout.addRow({ "DEUCE (word flags + 28-bit counters)",
                    TablePrinter::num(128 + 28, 0) + " bits",
                    TablePrinter::percent((128 + 28) / line_bits) });
    layout.addRow({ "baseline CME (28-bit counters)", "28 bits",
                    TablePrinter::percent(28 / line_bits) });
    layout.print();

    // Measured region footprint from the live system.
    SystemConfig config;
    DetailedExperiment detailed = runAppDetailed(
        appByName("gcc"), config, dewriteScheme(DedupMode::Predicted),
        experimentEvents() / 2, 1);
    const auto &ctrl = dynamic_cast<const DeWriteController &>(
        detailed.system->controller());
    const double region_ratio =
        static_cast<double>(ctrl.metadataCache().regionLines()) /
        static_cast<double>(config.memory.numLines);

    std::printf("\nmeasured metadata region: %s of data lines\n",
                TablePrinter::percent(region_ratio).c_str());
    std::printf("counter-colocation overflow after a gcc run: %zu "
                "counters (of %llu lines) — %s\n",
                ctrl.engine().overflowCounters(),
                static_cast<unsigned long long>(config.memory.numLines),
                TablePrinter::percent(
                    static_cast<double>(ctrl.engine().overflowCounters()) /
                    static_cast<double>(config.memory.numLines), 4)
                    .c_str());
    std::printf("\npaper: ~6.25%% metadata overhead, counter table "
                "eliminated by colocation\n");
    return 0;
}
