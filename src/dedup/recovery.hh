/**
 * @file
 * Metadata crash consistency and recovery (the paper's Section V).
 *
 * The metadata cache is write-back; on a crash, metadata that only
 * lived in dirty cache blocks is gone unless protected. The paper
 * points at three industrial options — a battery-backed cache (Silent
 * Shredder), explicit writeback primitives + ADR (Liu et al.), and
 * write-through counters (SecPM) — and this module supplies the piece
 * all of them still need: an audit-and-rebuild pass that restores the
 * *derived* structures from the durable ones.
 *
 * The durable ground truth after a crash is (a) the data lines, (b)
 * the address-mapping table, and (c) the inverted hash table — the
 * last two are written in the same persist path as the data they
 * describe. The hash store (a lookup accelerator) and the FSM bitmap
 * (a cache of "which slots hold data") are fully derivable:
 *
 *   hash store  <- one record per inverted-hash data slot, with
 *                  reference = |logicals mapping to the slot| plus the
 *                  slot's own logical if it is not remapped;
 *   FSM bitmap  <- slot used iff its inverted-hash entry holds a hash.
 *
 * RecoveryManager can audit a live engine against these rules, damage
 * the derived structures the way a crash would (for tests and drills),
 * rebuild them, and estimate the NVM scan time a real controller would
 * spend doing the same.
 */

#ifndef DEWRITE_DEDUP_RECOVERY_HH
#define DEWRITE_DEDUP_RECOVERY_HH

#include <cstdint>

#include "common/types.hh"

namespace dewrite {

class DedupEngine;
struct SystemConfig;

/** Outcome of one audit pass. */
struct AuditReport
{
    std::uint64_t hashRecordsChecked = 0;
    std::uint64_t missingHashRecords = 0;  //!< Data slot, no record.
    std::uint64_t strayHashRecords = 0;    //!< Record, no data slot.
    std::uint64_t wrongReferences = 0;     //!< Count disagrees.
    std::uint64_t fsmMismatches = 0;       //!< Bitmap disagrees.

    bool
    consistent() const
    {
        return missingHashRecords == 0 && strayHashRecords == 0 &&
               wrongReferences == 0 && fsmMismatches == 0;
    }
};

/** Outcome of a rebuild pass. */
struct RecoveryReport
{
    std::uint64_t slotsScanned = 0;     //!< Inverted-hash data slots.
    std::uint64_t mappingsScanned = 0;  //!< Remapped logical lines.
    std::uint64_t recordsRebuilt = 0;   //!< Hash-store records restored.
    std::uint64_t strongFpsRebuilt = 0; //!< Fingerprint caches rewarmed
                                        //!< (weak+strong policies only).

    /**
     * Modelled wall-clock time of the recovery scan: reading the
     * durable metadata regions once, spread across the banks.
     */
    Time estimatedScanTime = 0;
};

class RecoveryManager
{
  public:
    explicit RecoveryManager(DedupEngine &engine);

    /** Checks the derived structures against the durable ones. */
    AuditReport audit() const;

    /**
     * Simulates the crash damage of an unprotected write-back cache:
     * the derived structures (hash store, FSM) are discarded, as their
     * lazily-written blocks cannot be trusted after the crash. The
     * hash-store fields of every LineRecord (counts, strong-fingerprint
     * flags) go with the store; the durable mapping and inverted-hash
     * entries stay.
     */
    void simulateCrashDamage();

    /**
     * Rebuilds the hash store and FSM bitmap from the durable tables
     * and returns what was done. Safe to run on a consistent engine
     * (idempotent).
     */
    RecoveryReport rebuild();

  private:
    DedupEngine &engine_;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_RECOVERY_HH
