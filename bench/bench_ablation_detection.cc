/**
 * @file
 * Detection-policy ablation (DESIGN.md §5j): the paper's confirm-read
 * scheme against the unsafe weak-only ablation and the two-tier
 * weak+strong fingerprint scheme, across the full 20-application
 * catalog.
 *
 * For each policy the sweep reports detection latency, confirmation
 * reads paid and avoided, strong-fingerprint activity, write
 * reduction, bit flips, and host events/sec. Each policy also gets a
 * *detection parity fingerprint* — a CRC-32 over the per-app
 * decision-level signatures (detectionSignature). On collision-free
 * traces every confirming policy resolves the same candidates to the
 * same verdicts, so the weak+strong fingerprint must equal the
 * confirm-read one byte-for-byte. The bench exits non-zero when it
 * does not, or when weak+strong fails to reduce confirmation reads,
 * and prints the two fingerprints or confirm-read counts to stderr.
 *
 * Two knobs make the parity pin well-defined. PNA is disabled:
 * prediction-gated NVM queries make authoritativeness depend on
 * metadata-cache contents, which the policies legitimately warm
 * differently — with PNA on, the pin would compare cache luck instead
 * of detection logic. And the cells run on a single core: the CPU
 * model issues the globally earliest event across cores, so with
 * multiple cores a faster detection path reorders the interleaved
 * trace streams and changes which writes even occur. One core fixes
 * the event order, leaving content as the only input to every verdict.
 *
 * Events per cell come from DEWRITE_EVENTS (default 120000); pass
 * --quick for a 20x shorter run with the same shape.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/table_printer.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"

using namespace dewrite;

namespace {

constexpr DetectPolicy kPolicies[] = {
    DetectPolicy::ConfirmRead,
    DetectPolicy::WeakOnly,
    DetectPolicy::WeakStrong,
};

/** Aggregates of one policy's 20-app sweep. */
struct PolicyRun
{
    const char *name = nullptr;
    std::uint64_t events = 0;
    double seconds = 0.0;

    std::uint64_t writes = 0;
    std::uint64_t writesEliminated = 0;
    std::uint64_t bitsProgrammed = 0;
    double detects = 0.0;
    double detectPs = 0.0;
    double confirmReads = 0.0;
    double confirmReadsAvoided = 0.0;
    double strongFpComputes = 0.0;

    std::uint32_t fingerprint = 0; //!< CRC-32 over detection signatures.

    double eventsPerSec() const
    {
        return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
    }

    double avgDetectNs() const
    {
        return detects > 0 ? detectPs / detects / 1000.0 : 0.0;
    }

    double writeReduction() const
    {
        return writes > 0 ? static_cast<double>(writesEliminated) /
                static_cast<double>(writes)
                          : 0.0;
    }
};

double
metricValue(const ExperimentResult &cell, const char *path)
{
    for (const obs::MetricSample &sample : cell.metrics) {
        if (sample.path == path)
            return sample.value;
    }
    return 0.0;
}

PolicyRun
runPolicy(DetectPolicy policy, const std::vector<AppProfile> &apps,
          const SystemConfig &config, std::uint64_t events)
{
    SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    scheme.dewrite.detect = policy;
    scheme.dewrite.pnaEnabled = false;

    PolicyRun run;
    run.name = detectPolicyName(policy);
    const auto start = std::chrono::steady_clock::now();
    const auto cells = runMatrix(apps, { scheme }, config, events);
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    std::string signatures;
    for (const ExperimentResult &cell : cells) {
        run.events += cell.run.events;
        run.writes += cell.run.writes;
        run.writesEliminated += cell.run.writesEliminated;
        run.bitsProgrammed += cell.run.bitsProgrammed;
        run.detects +=
            metricValue(cell, "controller.dedup.detect.detects");
        run.detectPs += metricValue(
            cell, "controller.dedup.detect.latency_ps_total");
        run.confirmReads +=
            metricValue(cell, "controller.dedup.detect.confirm_reads");
        run.confirmReadsAvoided += metricValue(
            cell, "controller.dedup.detect.confirm_reads_avoided");
        run.strongFpComputes += metricValue(
            cell, "controller.dedup.detect.strong_fp_computes");
        signatures += detectionSignature(cell);
    }
    run.fingerprint = crc32(
        reinterpret_cast<const std::uint8_t *>(signatures.data()),
        signatures.size());
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const std::uint64_t events =
        quick ? experimentEvents() / 20 : experimentEvents();

    SystemConfig config;
    // Single core: multi-core cells issue the globally earliest event,
    // so detection latency would reorder the trace interleaving and
    // the policies would no longer see the same write stream (see the
    // file comment). One core pins the event order.
    config.numCores = 1;
    const std::vector<AppProfile> &apps = appCatalog();

    std::printf("Detection-policy ablation: %zu apps x %zu policies, "
                "%llu events/cell\n\n",
                apps.size(), std::size(kPolicies),
                static_cast<unsigned long long>(events));

    std::vector<PolicyRun> runs;
    for (DetectPolicy policy : kPolicies)
        runs.push_back(runPolicy(policy, apps, config, events));

    TablePrinter table({ "policy", "detect (ns)", "confirm reads",
                         "avoided", "fp computes", "eliminated",
                         "bit flips", "events/sec" });
    for (const PolicyRun &r : runs) {
        table.addRow({ r.name, TablePrinter::num(r.avgDetectNs(), 1),
                       TablePrinter::num(r.confirmReads, 0),
                       TablePrinter::num(r.confirmReadsAvoided, 0),
                       TablePrinter::num(r.strongFpComputes, 0),
                       TablePrinter::percent(r.writeReduction()),
                       std::to_string(r.bitsProgrammed),
                       TablePrinter::num(r.eventsPerSec(), 0) });
    }
    table.print();

    // Parity: the confirming policies must produce decision-identical
    // results on these (collision-free) traces; weak-only is reported
    // but not pinned — trusting the CRC is exactly what it ablates.
    const PolicyRun &confirm = runs[0];
    const PolicyRun &strong = runs[2];
    const bool strong_parity = strong.fingerprint == confirm.fingerprint;
    // The perf claim itself: the two-tier policy must resolve some
    // confirmations by fingerprint instead of a read.
    const bool strong_reduces =
        strong.confirmReads < confirm.confirmReads &&
        strong.confirmReadsAvoided > 0;

    std::printf("\nparity: weak-strong %s; confirm reads %s reduced\n",
                strong_parity ? "ok" : "MISMATCH",
                strong_reduces ? "ok" : "NOT");

    if (!strong_parity) {
        std::fprintf(stderr,
                     "detection parity fingerprints diverged: "
                     "confirm-read %08x, weak-strong %08x\n",
                     confirm.fingerprint, strong.fingerprint);
        return 1;
    }
    if (!strong_reduces) {
        std::fprintf(stderr,
                     "weak-strong failed to avoid confirmation reads: "
                     "confirm-read %.0f, weak-strong %.0f (%.0f "
                     "avoided)\n",
                     confirm.confirmReads, strong.confirmReads,
                     strong.confirmReadsAvoided);
        return 1;
    }
    return 0;
}
