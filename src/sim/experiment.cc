/**
 * @file
 * Experiment harness implementation.
 */

#include "sim/experiment.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/crc32.hh"
#include "common/env.hh"
#include "dedup/metadata_auditor.hh"
#include "obs/stage_profile.hh"

namespace dewrite {

ExperimentResult
makeResult(std::string app, const System &system, const RunResult &run)
{
    ExperimentResult cell;
    cell.app = std::move(app);
    cell.scheme = system.controller().name();
    cell.run = run;
    system.controller().fillStats(cell.stats);
    cell.metrics = system.registry().snapshot();
    return cell;
}

std::uint64_t
appSeed(const AppProfile &profile)
{
    // Stable across runs and platforms: derived from the name only.
    return 0x5eed0000ULL +
           crc32(reinterpret_cast<const std::uint8_t *>(
                     profile.name.data()),
                 profile.name.size());
}

std::string
resultSignature(const ExperimentResult &cell)
{
    std::string sig;
    char buf[128];
    auto addU64 = [&](const char *name, std::uint64_t v) {
        std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", name, v);
        sig += buf;
    };
    auto addF64 = [&](const char *name, double v) {
        std::snprintf(buf, sizeof buf, "%s=%.17g;", name, v);
        sig += buf;
    };

    sig += cell.app + "/" + cell.scheme + ";";
    const RunResult &r = cell.run;
    addU64("instructions", r.instructions);
    addU64("cycles", r.cycles);
    addU64("events", r.events);
    addU64("writes", r.writes);
    addU64("reads", r.reads);
    addU64("writesEliminated", r.writesEliminated);
    addF64("ipc", r.ipc);
    addF64("avgWriteLatencyNs", r.avgWriteLatencyNs);
    addF64("avgReadLatencyNs", r.avgReadLatencyNs);
    addU64("totalEnergy", r.totalEnergy);
    addU64("nvmLineWrites", r.nvmLineWrites);
    addU64("nvmLineReads", r.nvmLineReads);
    addU64("bitsProgrammed", r.bitsProgrammed);
    for (const auto &[name, value] : cell.stats.all())
        addF64(name.c_str(), value);
    return sig;
}

std::uint32_t
resultFingerprint(const ExperimentResult &cell)
{
    const std::string sig = resultSignature(cell);
    return crc32(reinterpret_cast<const std::uint8_t *>(sig.data()),
                 sig.size());
}

std::string
detectionSignature(const ExperimentResult &cell)
{
    std::string sig;
    char buf[128];
    auto addU64 = [&](const char *name, std::uint64_t v) {
        std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", name, v);
        sig += buf;
    };

    // The scheme name is deliberately absent: it embeds the detection
    // policy, and the whole point is comparing *across* policies.
    sig += cell.app + ";";
    const RunResult &r = cell.run;
    addU64("events", r.events);
    addU64("writes", r.writes);
    addU64("reads", r.reads);
    addU64("writesEliminated", r.writesEliminated);
    addU64("bitsProgrammed", r.bitsProgrammed);
    // Decision-level dedup counters only. Timing, energy, and raw NVM
    // line traffic are excluded on purpose: a policy that skips
    // confirmation reads touches fewer metadata blocks, so cache
    // evictions (and thus metadata write-backs) differ while every
    // dedup verdict is identical.
    for (const char *stat :
         { "duplicate_commits", "unique_commits", "silent_stores",
           "collision_mismatches", "missed_by_saturation",
           "missed_by_pna", "unsafe_corruptions" }) {
        addU64(stat,
               static_cast<std::uint64_t>(cell.stats.get(stat)));
    }
    return sig;
}

std::uint64_t
experimentEvents()
{
    // Every bench resolves its event budget here, so this is the
    // shared spot to validate the rest of the experiment environment:
    // an unknown or retired DEWRITE_* name, or a malformed
    // DEWRITE_AUDIT, DEWRITE_AUDIT_EPOCH, DEWRITE_BATCH or
    // DEWRITE_STAGE_PROFILE dies before any cell runs (even when the
    // value would never be read).
    rejectUnknownKnobs();
    auditEnabled();
    auditEpochWrites();
    writeBatchSize();
    obs::stageProfileEnabled();
    return envUint("DEWRITE_EVENTS", 120000, 1, kMaxExperimentEvents);
}

ExperimentResult
runApp(const AppProfile &profile, const SystemConfig &config,
       const SchemeOptions &scheme, std::uint64_t max_events,
       std::uint64_t seed)
{
    return runAppDetailed(profile, config, scheme, max_events, seed)
        .result;
}

ExperimentResult
runApp(const AppProfile &profile, const SystemConfig &config,
       const SchemeOptions &scheme)
{
    return runApp(profile, config, scheme, experimentEvents(),
                  appSeed(profile));
}

DetailedExperiment
runAppDetailed(const AppProfile &profile, const SystemConfig &config,
               const SchemeOptions &scheme, std::uint64_t max_events,
               std::uint64_t seed)
{
    DetailedExperiment detailed;

    // One workload instance per core (a multi-programmed run of the
    // application), sharing the program-phase state and split across
    // disjoint address ranges.
    auto phase = std::make_shared<SharedPhase>();
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<TraceSource *> traces;
    const unsigned cores = std::max(1u, config.numCores);
    for (unsigned core = 0; core < cores; ++core) {
        workloads.push_back(std::make_unique<SyntheticWorkload>(
            profile, seed + core,
            static_cast<LineAddr>(core) * profile.workingSetLines * 2,
            phase));
        traces.push_back(workloads.back().get());
    }

    // Derive the table sizing hint from what this run can actually
    // touch: the multi-programmed working set, capped by the event
    // budget (a run of N events writes at most N distinct lines).
    SystemConfig sized = config;
    if (sized.memory.workingSetHintLines == 0) {
        sized.memory.workingSetHintLines = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(cores) * profile.workingSetLines,
            std::max<std::uint64_t>(max_events, 1024));
    }

    detailed.system = std::make_unique<System>(sized, scheme);
    const RunResult run = detailed.system->run(traces, max_events);
    detailed.result = makeResult(profile.name, *detailed.system, run);
    return detailed;
}

SchemeOptions
plainScheme()
{
    SchemeOptions scheme;
    scheme.kind = SchemeKind::Plain;
    return scheme;
}

SchemeOptions
secureBaselineScheme()
{
    SchemeOptions scheme;
    scheme.kind = SchemeKind::SecureBaseline;
    return scheme;
}

SchemeOptions
dewriteScheme(DedupMode mode)
{
    SchemeOptions scheme;
    scheme.kind = SchemeKind::DeWrite;
    scheme.dewrite.mode = mode;
    return scheme;
}

} // namespace dewrite
