/**
 * @file
 * RecoveryManager implementation.
 */

#include "dedup/recovery.hh"

#include <vector>

#include "dedup/dedup_engine.hh"
#include "dedup/metadata_auditor.hh"
#include "nvm/nvm_device.hh"

namespace dewrite {

RecoveryManager::RecoveryManager(DedupEngine &engine) : engine_(engine)
{
}

AuditReport
RecoveryManager::audit() const
{
    AuditReport report;
    const LineTable &lines = engine_.lines();
    const auto refs = lines.referenceCounts();

    // Every data slot must have a matching hash-store record with the
    // true reference count (saturated records are pinned and exempt).
    lines.forEachDataSlot(
        [&](LineAddr slot, std::uint64_t hash) {
            ++report.hashRecordsChecked;
            const std::uint8_t recorded =
                engine_.hashStore().reference(hash, slot);
            if (recorded == 0) {
                ++report.missingHashRecords;
                return;
            }
            const std::uint64_t expected = refs.get(slot);
            if (recorded != HashStore::kMaxReference &&
                recorded != expected) {
                ++report.wrongReferences;
            }
        });

    // Every record must describe a live data slot with the same hash.
    // dewrite-lint: allow(unsorted-iteration) commutative counts
    engine_.hashStore().forEach(
        [&](std::uint64_t hash, const HashEntry &entry) {
            const LineRecord &record = lines.at(entry.realAddr);
            if (!record.holdsData() || record.hash() != hash)
                ++report.strayHashRecords;
        });

    // The FSM bitmap must mark exactly the data slots as used.
    for (LineAddr slot = 0; slot < engine_.freeSpace().capacity();
         ++slot) {
        const bool holds = lines.at(slot).holdsData();
        if (engine_.freeSpace().isFree(slot) == holds)
            ++report.fsmMismatches;
    }
    return report;
}

void
RecoveryManager::simulateCrashDamage()
{
    engine_.hashStore_.clear();
    engine_.fsm_ = FreeSpaceTable(engine_.config_.memory.numLines);
}

RecoveryReport
RecoveryManager::rebuild()
{
    RecoveryReport report;

    const LineTable &lines = engine_.lines();
    const auto refs = lines.referenceCounts();
    lines.forEachRemapped(
        [&](LineAddr, LineAddr) { ++report.mappingsScanned; });

    // Start from empty derived structures and restore them from the
    // durable inverted-hash walk.
    engine_.hashStore_.clear();
    engine_.fsm_ = FreeSpaceTable(engine_.config_.memory.numLines);

    // Under the weak+strong policy the scan already streams every
    // stored line past the controller, so the strong-fingerprint caches
    // are rebuilt in the same pass — a fresh boot starts with warm
    // fingerprints instead of re-paying one confirmation read each.
    const bool rebuild_strong_fps =
        engine_.options_.detect == DetectPolicy::WeakStrong;

    std::vector<LineAddr> orphaned;
    lines.forEachDataSlot(
        [&](LineAddr slot, std::uint64_t hash) {
            ++report.slotsScanned;
            const std::uint64_t count = refs.get(slot);
            // A data slot nobody references can only appear if the
            // crash interrupted a release; reclaim it below.
            if (count == 0) {
                orphaned.push_back(slot);
                return;
            }
            engine_.hashStore_.restore(hash, slot, count);
            if (rebuild_strong_fps) {
                engine_.hashStore_.setStrongFp(
                    slot, strongFingerprint(engine_.decryptStored(slot)));
                ++report.strongFpsRebuilt;
            }
            engine_.fsm_.allocate(slot);
            ++report.recordsRebuilt;
        });
    for (LineAddr slot : orphaned) {
        LineRecord &record = engine_.lines_.ref(slot);
        const std::uint64_t counter = engine_.counterOf(record);
        record.clearHash();
        engine_.setCounterOf(record, counter);
    }

    // Scan-time estimate: one sequential pass over the two durable
    // metadata regions (mapping + inverted hash), spread over the
    // banks.
    const SystemConfig &config = engine_.config_;
    const std::uint64_t region_lines =
        2 * ((config.memory.numLines * 33 + kLineBits - 1) / kLineBits);
    report.estimatedScanTime = region_lines * config.timing.nvmRead /
                               config.timing.numBanks;

    // A rebuilt engine must satisfy every cross-table invariant; under
    // DEWRITE_AUDIT=1 a recovery that leaves the metadata inconsistent
    // dies here with the violated invariant named.
    if (auditEnabled())
        MetadataAuditor(engine_).enforce("recovery");
    return report;
}

} // namespace dewrite
