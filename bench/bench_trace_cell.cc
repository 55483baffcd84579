/**
 * @file
 * Single-cell observability smoke: trace + time series + registry.
 *
 * Simulates one (application, scheme) cell with the write-pipeline
 * tracer attached and emits every observability artifact the stack
 * produces:
 *
 *  - TRACE_cell.json — Chrome/Perfetto trace of the retained event
 *    tail (load it at https://ui.perfetto.dev);
 *  - BENCH_trace_cell.json — uniform bench JSON with the epoch time
 *    series (write reduction / prediction accuracy per epoch), the
 *    full registry snapshot, and the tracer's own accounting.
 *
 * The binary is also a consistency check: the tracer's aggregates and
 * the registry snapshot are cross-checked against the authoritative
 * ExperimentResult counters, and any mismatch exits non-zero — CI runs
 * this as the end-to-end proof that the three reporting paths agree.
 *
 * Usage: bench_trace_cell [app-name] (default: first catalog app).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "obs/bench_report.hh"
#include "obs/trace_export.hh"
#include "sim/experiment.hh"
#include "trace/app_catalog.hh"

using namespace dewrite;

namespace {

int
fail(const char *what)
{
    std::fprintf(stderr, "trace-cell consistency FAILED: %s\n", what);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<AppProfile> &apps = appCatalog();
    const AppProfile *app = &apps.front();
    if (argc > 1) {
        app = nullptr;
        for (const AppProfile &candidate : apps) {
            if (candidate.name == argv[1])
                app = &candidate;
        }
        if (!app) {
            std::fprintf(stderr, "unknown app \"%s\"\n", argv[1]);
            return 1;
        }
    }

    SystemConfig config;
    const SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    const std::uint64_t events = experimentEvents();

    obs::TraceConfig trace_config;
    const DetailedExperiment cell = runAppTraced(
        *app, config, scheme, events, appSeed(*app), trace_config);
    const obs::WriteTracer *tracer = cell.system->tracer();
    if (!tracer)
        return fail("tracer not attached");

    const ExperimentResult &r = cell.result;
    std::printf("%s under %s: %llu events, %zu trace events retained "
                "(%llu recorded), %zu epochs\n",
                r.app.c_str(), r.scheme.c_str(),
                static_cast<unsigned long long>(r.run.events),
                tracer->size(),
                static_cast<unsigned long long>(tracer->recorded()),
                tracer->epochs().size());

    // --- Consistency: tracer aggregates vs the authoritative run. ---
    if (tracer->recorded() != r.run.writes)
        return fail("recorded events != write requests");

    std::uint64_t dup_total = tracer->currentEpoch().duplicates;
    for (const obs::EpochSnapshot &epoch : tracer->epochs())
        dup_total += epoch.duplicates;
    if (dup_total != r.run.writesEliminated)
        return fail("epoch duplicates != writes eliminated");

    // --- Consistency: live registry vs the snapshot in the result. ---
    const obs::MetricRegistry &registry = cell.system->registry();
    if (registry.snapshot() != r.metrics)
        return fail("registry snapshot is not reproducible");
    const obs::MetricRegistry::Entry *writes =
        registry.find("controller.write_requests");
    const obs::MetricRegistry::Entry *eliminated =
        registry.find("controller.writes_eliminated");
    if (!writes || !eliminated)
        return fail("canonical controller paths missing");
    if (writes->read() != static_cast<double>(r.run.writes))
        return fail("controller.write_requests != run counter");
    if (eliminated->read() !=
        static_cast<double>(r.run.writesEliminated)) {
        return fail("controller.writes_eliminated != run counter");
    }

    // --- Consistency: legacy StatSet view vs the registry. ---
    StatSet from_registry;
    registry.fillStatSet(from_registry);
    for (const auto &[name, value] : r.stats.all()) {
        if (from_registry.get(name) != value)
            return fail("legacy StatSet view diverged");
    }

    // --- Artifacts. ---
    {
        std::FILE *out = std::fopen("TRACE_cell.json", "w");
        if (!out) {
            std::fprintf(stderr, "cannot write TRACE_cell.json\n");
            return 1;
        }
        obs::JsonWriter w(out);
        obs::writeChromeTrace(*tracer, w, r.app + "/" + r.scheme);
        const bool ok = w.ok() && w.depth() == 0;
        if (std::fclose(out) != 0 || !ok) {
            std::fprintf(stderr, "failed writing TRACE_cell.json\n");
            return 1;
        }
        std::printf("wrote TRACE_cell.json\n");
    }

    obs::BenchReport report("trace_cell", events, 1);
    obs::JsonWriter &w = report.json();
    w.field("app", r.app);
    w.field("scheme", r.scheme);
    w.field("events_recorded", tracer->recorded());
    w.field("events_retained",
            static_cast<std::uint64_t>(tracer->size()));
    w.field("epoch_events", tracer->epochEvents());
    w.field("host_seconds", r.hostSeconds);
    w.key("epochs");
    obs::writeEpochSeries(*tracer, w);
    w.key("registry");
    registry.writeJson(w);
    if (!report.close()) {
        std::fprintf(stderr, "failed writing %s\n",
                     report.path().c_str());
        return 1;
    }
    std::printf("wrote %s\nconsistency OK\n", report.path().c_str());
    return 0;
}
