/**
 * @file
 * Shared experiment harness helpers used by every bench binary.
 *
 * Each of the paper's figures compares schemes over the same 20
 * applications; these helpers standardize how a (workload, scheme)
 * cell is simulated so that all benches agree on seeds, event counts,
 * and accounting.
 */

#ifndef DEWRITE_SIM_EXPERIMENT_HH
#define DEWRITE_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "obs/metric_registry.hh"
#include "sim/system.hh"
#include "trace/trace_gen.hh"

namespace dewrite {

/** One simulated (application, scheme) cell. */
struct ExperimentResult
{
    std::string app;
    std::string scheme;
    RunResult run;
    StatSet stats; //!< Controller-specific detail counters (legacy view).

    /** Registry snapshot at run end (path-sorted, all components). */
    std::vector<obs::MetricSample> metrics;
};

/**
 * The cell of @p system's finished @p run, named @p app: the scheme's
 * name, the legacy stats and the registry snapshot.
 */
ExperimentResult makeResult(std::string app, const System &system,
                            const RunResult &run);

/** Deterministic per-application trace seed. */
std::uint64_t appSeed(const AppProfile &profile);

/**
 * Canonical text serialization of every user-visible number an
 * ExperimentResult carries — the RunResult headline fields and every
 * controller detail stat. Doubles print with %.17g, which round-trips
 * IEEE-754 exactly, so two signatures match iff the cells are
 * bit-identical in every observable counter. The golden parity tests
 * and the bench parity fingerprints are both built on this.
 */
std::string resultSignature(const ExperimentResult &cell);

/** CRC-32 of resultSignature(). */
std::uint32_t resultFingerprint(const ExperimentResult &cell);

/**
 * Canonical serialization of a cell's *decision-level* outcome only:
 * the traffic counts and dedup verdict counters that depend purely on
 * which writes were deduplicated, never on how long detection took or
 * which metadata-cache blocks it warmed. Detection-policy ablations
 * pin their parity on this: confirm-read and weak+strong resolve the
 * same candidates to the same verdicts on collision-free traces, so
 * their detection signatures must match byte-for-byte even though
 * latency, energy, and NVM traffic legitimately differ.
 */
std::string detectionSignature(const ExperimentResult &cell);

/** Upper bound accepted from DEWRITE_EVENTS (a guard against typos
 * requesting effectively-infinite runs, not a simulator limit). */
constexpr std::uint64_t kMaxExperimentEvents = 1ULL << 40;

/**
 * Number of trace events per experiment cell. Defaults to 120k;
 * override with the DEWRITE_EVENTS environment variable to trade
 * precision for speed. Malformed, zero, negative, or overflowing
 * values are rejected with fatal() rather than silently misparsed.
 */
std::uint64_t experimentEvents();

/** Simulates @p profile under @p scheme with the shared defaults. */
ExperimentResult runApp(const AppProfile &profile,
                        const SystemConfig &config,
                        const SchemeOptions &scheme,
                        std::uint64_t max_events, std::uint64_t seed);

/** Convenience: shared defaults for events and seed. */
ExperimentResult runApp(const AppProfile &profile,
                        const SystemConfig &config,
                        const SchemeOptions &scheme);

/**
 * Like runApp but keeps the simulated System alive so harnesses can
 * inspect final component state (hash-store chains, wear, caches).
 */
struct DetailedExperiment
{
    ExperimentResult result;
    std::unique_ptr<System> system;
};

DetailedExperiment runAppDetailed(const AppProfile &profile,
                                  const SystemConfig &config,
                                  const SchemeOptions &scheme,
                                  std::uint64_t max_events,
                                  std::uint64_t seed);

/** @{ Canonical scheme configurations used across benches. */
SchemeOptions plainScheme();
SchemeOptions secureBaselineScheme();
SchemeOptions dewriteScheme(DedupMode mode);
/** @} */

} // namespace dewrite

#endif // DEWRITE_SIM_EXPERIMENT_HH
