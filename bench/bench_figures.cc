/**
 * @file
 * Figures 2, 4, 6, 7, 12, 14, 15, 16, 17, 19 and 20 — every figure
 * that reads the 20 applications' default run.
 *
 * Each application's trace is scanned once against a reference memory
 * image (measureWorkload), and the application is simulated once under
 * each of four schemes: the secure baseline and DeWrite's direct,
 * parallel and predicted write paths. The eleven tables then print in
 * figure order from those shared results.
 */

#include <cstdio>

#include <array>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/crc32.hh"
#include "common/table_printer.hh"
#include "controller/dewrite_controller.hh"
#include "dedup/predictor.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"
#include "trace/workload_stats.hh"

using namespace dewrite;

namespace {

/** Row order of AppRun::cells. */
enum Scheme : std::size_t { Baseline, Direct, Parallel, Predicted, kSchemes };

/** Fig. 4's history windows. */
constexpr unsigned kWindows[] = { 1, 3, 5, 8 };
constexpr std::size_t kNumWindows = std::size(kWindows);

/** Fig. 7's buckets of live hash-store records by reference count. */
struct RefCountBuckets
{
    std::uint64_t total = 0;
    std::uint64_t r1 = 0;
    std::uint64_t r2 = 0;
    std::uint64_t r9 = 0;
    std::uint64_t r65 = 0;
    std::uint64_t sat = 0;
};

/** Everything the eleven figures read of one application. */
struct AppRun
{
    const AppProfile *app = nullptr;
    WorkloadStats truth;
    std::array<double, kNumWindows> accuracy{};
    std::uint64_t distinct = 0;  //!< Distinct contents written.
    std::uint64_t colliding = 0; //!< Of those, in a CRC-32 collision.
    RefCountBuckets refs;        //!< Of the predicted cell, at run end.
    std::array<ExperimentResult, kSchemes> cells;
};

/**
 * The ground-truth pass: duplicate counts, the predictor windows
 * scored on the true duplicate states, and the CRC-32 collisions among
 * the distinct contents written.
 */
void
scanTrace(AppRun &run, std::uint64_t events)
{
    std::array<DupPredictor, kNumWindows> predictors{
        DupPredictor(kWindows[0]), DupPredictor(kWindows[1]),
        DupPredictor(kWindows[2]), DupPredictor(kWindows[3])
    };
    std::unordered_set<std::uint64_t> seen;
    std::unordered_map<std::uint32_t, std::uint64_t> by_crc;

    SyntheticWorkload trace(*run.app, appSeed(*run.app));
    run.truth = measureWorkload(
        trace, events, [&](const MemEvent &event, bool duplicate) {
            for (DupPredictor &predictor : predictors)
                predictor.recordAndScore(duplicate);
            const std::uint64_t digest = event.data.contentDigest();
            if (!seen.insert(digest).second)
                return;
            ++run.distinct;
            auto [it, fresh] = by_crc.emplace(crc32(event.data), digest);
            if (!fresh && it->second != digest)
                run.colliding += 2;
        });
    for (std::size_t w = 0; w < kNumWindows; ++w)
        run.accuracy[w] = predictors[w].accuracy();
}

RefCountBuckets
countReferences(const System &system)
{
    const auto &ctrl =
        dynamic_cast<const DeWriteController &>(system.controller());
    RefCountBuckets refs;
    // dewrite-lint: allow(unsorted-iteration) commutative buckets
    ctrl.engine().hashStore().forEach(
        [&](std::uint32_t, const HashEntry &entry) {
            ++refs.total;
            if (entry.reference == 1)
                ++refs.r1;
            else if (entry.reference <= 8)
                ++refs.r2;
            else if (entry.reference <= 64)
                ++refs.r9;
            else if (entry.reference < 255)
                ++refs.r65;
            else
                ++refs.sat;
        });
    return refs;
}

// Paper's shape: duplicates range 18.6% (vips) to 98.4% (cactusADM)
// with a 58% mean; zero lines average ~16% and dominate only sjeng.
void
printFig02(const std::vector<AppRun> &runs)
{
    std::printf("Figure 2: duplicate lines written to NVMM\n\n");
    TablePrinter table({ "app", "suite", "dup lines", "zero lines",
                         "non-zero dup" });
    double dup_sum = 0.0;
    double zero_sum = 0.0;
    for (const AppRun &run : runs) {
        const WorkloadStats &stats = run.truth;
        dup_sum += stats.dupFraction();
        zero_sum += stats.zeroFraction();
        table.addRow({ run.app->name, run.app->suite,
                       TablePrinter::percent(stats.dupFraction()),
                       TablePrinter::percent(stats.zeroFraction()),
                       TablePrinter::percent(stats.dupFraction() -
                                             stats.zeroFraction()) });
    }
    const double n = static_cast<double>(runs.size());
    table.addRow({ "AVERAGE", "-", TablePrinter::percent(dup_sum / n),
                   TablePrinter::percent(zero_sum / n),
                   TablePrinter::percent((dup_sum - zero_sum) / n) });
    table.print();
    std::printf("\npaper: dup 18.6%%..98.4%%, mean 58%%; "
                "zero mean ~16%%, sjeng zero-dominated\n\n");
}

// Paper's shape: ~92.1% mean accuracy with one bit of history, rising
// to ~93.6% with three; wider windows give negligible or negative
// returns.
void
printFig04(const std::vector<AppRun> &runs)
{
    std::printf("Figure 4: prediction accuracy vs history window\n\n");
    TablePrinter table({ "app", "k=1", "k=3", "k=5", "k=8" });
    double sums[kNumWindows] = {};
    for (const AppRun &run : runs) {
        std::vector<std::string> row{ run.app->name };
        for (std::size_t w = 0; w < kNumWindows; ++w) {
            sums[w] += run.accuracy[w];
            row.push_back(TablePrinter::percent(run.accuracy[w]));
        }
        table.addRow(std::move(row));
    }
    const double n = static_cast<double>(runs.size());
    std::vector<std::string> average{ "AVERAGE" };
    for (double sum : sums)
        average.push_back(TablePrinter::percent(sum / n));
    table.addRow(std::move(average));
    table.print();
    std::printf("\npaper: k=1 ~92.1%%, k=3 ~93.6%%, wider windows give "
                "negligible gains\n\n");
}

// Paper's shape: collision probability below 0.01% on average —
// collisions exist (hence the confirm-by-read) but are vanishingly
// rare. "detect mismatches" are the collisions the live engine hit: a
// fingerprint matched and the byte comparison failed.
void
printFig06(const std::vector<AppRun> &runs)
{
    std::printf("Figure 6: CRC-32 collision probability\n\n");
    TablePrinter table({ "app", "distinct contents", "colliding",
                         "collision prob", "detect mismatches" });
    double prob_sum = 0.0;
    for (const AppRun &run : runs) {
        const double probability =
            run.distinct ? static_cast<double>(run.colliding) /
                               static_cast<double>(run.distinct)
                         : 0.0;
        prob_sum += probability;
        table.addRow(
            { run.app->name, TablePrinter::num(run.distinct, 0),
              TablePrinter::num(run.colliding, 0),
              TablePrinter::percent(probability, 4),
              TablePrinter::num(
                  run.cells[Predicted].stats.get("collision_mismatches"),
                  0) });
    }
    table.addRow({ "AVERAGE", "-", "-",
                   TablePrinter::percent(
                       prob_sum / static_cast<double>(runs.size()), 4),
                   "-" });
    table.print();
    std::printf("\npaper: collision probability < 0.01%% on average\n\n");
}

// Paper's shape: >99.999% of lines have reference < 255; a tiny tail
// of highly shared lines (zero pages, popular patterns) saturates and
// is pinned.
void
printFig07(const std::vector<AppRun> &runs, const SystemConfig &config)
{
    std::printf("Figure 7: reference-count distribution\n\n");
    TablePrinter table({ "app", "records", "ref=1", "ref 2-8",
                         "ref 9-64", "ref 65-254", "ref=255(sat)",
                         "below 255" });
    double below_sum = 0.0;
    for (const AppRun &run : runs) {
        const RefCountBuckets &refs = run.refs;
        // The paper's denominator is all lines of the module: lines
        // never written (the vast majority of a 16 GB NVMM) trivially
        // hold reference 0, and only the pinned records' lines sit at
        // the cap.
        const double below =
            1.0 - static_cast<double>(refs.sat) /
                      static_cast<double>(config.memory.numLines);
        below_sum += below;
        table.addRow({ run.app->name, TablePrinter::num(refs.total, 0),
                       TablePrinter::num(refs.r1, 0),
                       TablePrinter::num(refs.r2, 0),
                       TablePrinter::num(refs.r9, 0),
                       TablePrinter::num(refs.r65, 0),
                       TablePrinter::num(refs.sat, 0),
                       TablePrinter::percent(below, 3) });
    }
    table.addRow({ "AVERAGE", "-", "-", "-", "-", "-", "-",
                   TablePrinter::percent(
                       below_sum / static_cast<double>(runs.size()), 3) });
    table.print();
    std::printf("\npaper: >99.999%% of lines have reference < 255\n\n");
}

// Paper's shape: 54% mean reduction vs 58% mean duplication; ~1.5%
// missed duplicates (by PNA and by reference saturation), ~2.6% extra
// NVM writes from metadata-cache dirty evictions.
void
printFig12(const std::vector<AppRun> &runs)
{
    std::printf("Figure 12: write reduction on secure NVMM\n\n");
    TablePrinter table({ "app", "dup truth", "eliminated", "missed",
                         "metadata wr", "net reduction" });
    double truth_sum = 0, elim_sum = 0, net_sum = 0;
    for (const AppRun &run : runs) {
        const ExperimentResult &r = run.cells[Predicted];
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

        truth_sum += run.truth.dupFraction();
        elim_sum += eliminated;
        net_sum += net;
        table.addRow({ run.app->name,
                       TablePrinter::percent(run.truth.dupFraction()),
                       TablePrinter::percent(eliminated),
                       TablePrinter::percent(missed),
                       TablePrinter::percent(metadata_writes),
                       TablePrinter::percent(net) });
    }
    const double n = static_cast<double>(runs.size());
    table.addRow({ "AVERAGE", TablePrinter::percent(truth_sum / n),
                   TablePrinter::percent(elim_sum / n), "-", "-",
                   TablePrinter::percent(net_sum / n) });
    table.print();
    std::printf("\npaper: 54%% mean reduction vs 58%% duplication; "
                "~1.5%% missed, ~2.6%% metadata writes\n\n");
}

/** Whether DeWrite gains when a metric falls (latency) or rises (IPC). */
enum class Better { Lower, Higher };

/**
 * A DeWrite-versus-baseline table (Figs. 14, 16 and 17): per app,
 * @p metric under the secure baseline and under DeWrite with
 * @p decimals digits, DeWrite's gain, and the mean gain.
 */
void
printGain(const std::vector<AppRun> &runs, const char *title,
          const char *baseline_col, const char *dewrite_col,
          const char *gain_col, double RunResult::*metric, int decimals,
          Better better, const char *paper)
{
    std::printf("%s\n\n", title);
    TablePrinter table({ "app", baseline_col, dewrite_col, gain_col });
    double gain_sum = 0.0;
    for (const AppRun &run : runs) {
        const double base = run.cells[Baseline].run.*metric;
        const double dewrite = run.cells[Predicted].run.*metric;
        const double gain =
            better == Better::Lower ? base / dewrite : dewrite / base;
        gain_sum += gain;
        table.addRow({ run.app->name, TablePrinter::num(base, decimals),
                       TablePrinter::num(dewrite, decimals),
                       TablePrinter::times(gain) });
    }
    table.addRow({ "AVERAGE", "-", "-",
                   TablePrinter::times(
                       gain_sum / static_cast<double>(runs.size())) });
    table.print();
    std::printf("\npaper: %s\n\n", paper);
}

// Paper's shape: parallel lowest, DeWrite within a hair of parallel
// (high prediction accuracy), direct highest; DeWrite ~27% below
// direct on average. In this reproduction DeWrite can dip *below*
// parallel because the PNA scheme also removes in-NVM hash queries
// from the unique-write path.
void
printFig15(const std::vector<AppRun> &runs)
{
    std::printf("Figure 15: write latency by scheduling scheme "
                "(normalized to the direct way)\n\n");
    TablePrinter table({ "app", "direct (ns)", "parallel/direct",
                         "DeWrite/direct" });
    double parallel_sum = 0.0, dewrite_sum = 0.0;
    for (const AppRun &run : runs) {
        const double direct = run.cells[Direct].run.avgWriteLatencyNs;
        const double par_rel =
            run.cells[Parallel].run.avgWriteLatencyNs / direct;
        const double dw_rel =
            run.cells[Predicted].run.avgWriteLatencyNs / direct;
        parallel_sum += par_rel;
        dewrite_sum += dw_rel;
        table.addRow({ run.app->name, TablePrinter::num(direct, 1),
                       TablePrinter::percent(par_rel),
                       TablePrinter::percent(dw_rel) });
    }
    const double n = static_cast<double>(runs.size());
    table.addRow({ "AVERAGE", "-",
                   TablePrinter::percent(parallel_sum / n),
                   TablePrinter::percent(dewrite_sum / n) });
    table.print();
    std::printf("\npaper: DeWrite ~= parallel, ~27%% below the direct "
                "way on average\n\n");
}

/** Energy in uJ, as Figs. 19 and 20 print it. */
std::string
microjoules(Energy energy)
{
    return TablePrinter::num(static_cast<double>(energy) / 1e6, 1);
}

/** @p energy relative to @p reference. */
double
energyRatio(Energy energy, Energy reference)
{
    return static_cast<double>(energy) / static_cast<double>(reference);
}

// Paper's shape: -40% mean energy; savings track the write reduction.
// Energy covers the NVM array (reads, cell writes), the AES circuit
// (data encryption, OTPs, metadata crypto), and the dedup logic
// (CRC-32 and comparisons); eliminated writes save both cell energy
// and their encryption.
void
printFig19(const std::vector<AppRun> &runs)
{
    std::printf("Figure 19: energy relative to the secure baseline\n\n");
    TablePrinter table({ "app", "baseline (uJ)", "DeWrite (uJ)",
                         "relative" });
    double rel_sum = 0.0;
    for (const AppRun &run : runs) {
        const Energy base = run.cells[Baseline].run.totalEnergy;
        const Energy dewrite = run.cells[Predicted].run.totalEnergy;
        const double relative = energyRatio(dewrite, base);
        rel_sum += relative;
        table.addRow({ run.app->name, microjoules(base),
                       microjoules(dewrite),
                       TablePrinter::percent(relative) });
    }
    table.addRow({ "AVERAGE", "-", "-",
                   TablePrinter::percent(
                       rel_sum / static_cast<double>(runs.size())) });
    table.print();
    std::printf("\npaper: DeWrite consumes ~60%% of baseline energy "
                "(-40%%) on average\n\n");
}

// Paper's shape: DeWrite ~= direct, ~32% below the parallel way on
// average. The parallel way encrypts every write (wasting AES energy
// on each duplicate); the direct way encrypts only confirmed uniques;
// DeWrite wastes encryption only on mispredictions.
void
printFig20(const std::vector<AppRun> &runs)
{
    std::printf("Figure 20: energy by scheduling scheme "
                "(normalized to the parallel way)\n\n");
    TablePrinter table({ "app", "parallel (uJ)", "direct/parallel",
                         "DeWrite/parallel", "wasted AES (DeWrite)" });
    double direct_sum = 0.0, dewrite_sum = 0.0;
    for (const AppRun &run : runs) {
        const Energy parallel = run.cells[Parallel].run.totalEnergy;
        const double dir_rel =
            energyRatio(run.cells[Direct].run.totalEnergy, parallel);
        const double dw_rel =
            energyRatio(run.cells[Predicted].run.totalEnergy, parallel);
        direct_sum += dir_rel;
        dewrite_sum += dw_rel;
        table.addRow(
            { run.app->name, microjoules(parallel),
              TablePrinter::percent(dir_rel),
              TablePrinter::percent(dw_rel),
              TablePrinter::num(
                  run.cells[Predicted].stats.get("wasted_encryptions"),
                  0) });
    }
    const double n = static_cast<double>(runs.size());
    table.addRow({ "AVERAGE", "-",
                   TablePrinter::percent(direct_sum / n),
                   TablePrinter::percent(dewrite_sum / n), "-" });
    table.print();
    std::printf("\npaper: DeWrite ~= direct way, ~32%% below the "
                "parallel way on average\n\n");
}

} // namespace

int
main()
{
    const std::uint64_t events = experimentEvents();
    const SystemConfig config;
    const std::array<SchemeOptions, kSchemes> schemes{
        secureBaselineScheme(), dewriteScheme(DedupMode::Direct),
        dewriteScheme(DedupMode::Parallel),
        dewriteScheme(DedupMode::Predicted)
    };

    const std::vector<AppProfile> &apps = appCatalog();
    std::vector<AppRun> runs(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a)
        runs[a].app = &apps[a];

    // Per application: task 0 scans the trace, tasks 1..kSchemes
    // simulate one scheme each.
    constexpr std::size_t kTasks = kSchemes + 1;
    parallelFor(runs.size() * kTasks, [&](std::size_t task) {
        AppRun &run = runs[task / kTasks];
        if (task % kTasks == 0) {
            scanTrace(run, events);
            return;
        }
        const std::size_t s = task % kTasks - 1;
        DetailedExperiment detailed = runAppDetailed(
            *run.app, config, schemes[s], events, appSeed(*run.app));
        if (s == Predicted)
            run.refs = countReferences(*detailed.system);
        run.cells[s] = std::move(detailed.result);
    });

    printFig02(runs);
    printFig04(runs);
    printFig06(runs);
    printFig07(runs, config);
    printFig12(runs);
    // Fig. 14. Paper's shape: 4.2x mean, up to ~8x for dup-heavy
    // applications (cactusADM, lbm); modest for vips/bzip2.
    printGain(runs, "Figure 14: memory write speedup", "baseline (ns)",
              "DeWrite (ns)", "speedup", &RunResult::avgWriteLatencyNs, 1,
              Better::Lower,
              "4.2x mean write speedup, up to ~8x for cactusADM and lbm");
    printFig15(runs);
    // Fig. 16. Paper's shape: 3.1x mean read speedup; gains track the
    // write reduction. Eliminated duplicate writes stop occupying
    // banks, so reads wait less; DeWrite's own address-mapping lookup
    // adds a small cost on each read.
    printGain(runs, "Figure 16: memory read speedup", "baseline (ns)",
              "DeWrite (ns)", "speedup", &RunResult::avgReadLatencyNs, 1,
              Better::Lower, "3.1x mean read speedup");
    // Fig. 17. Paper's shape: +82% mean IPC; dup-heavy applications
    // gain the most. Writes stall the cores (persist ordering), so
    // write latency translates directly into instruction throughput.
    printGain(runs, "Figure 17: IPC relative to the secure baseline",
              "baseline IPC", "DeWrite IPC", "relative", &RunResult::ipc,
              3, Better::Higher, "+82% mean IPC improvement");
    printFig19(runs);
    printFig20(runs);
    return 0;
}
