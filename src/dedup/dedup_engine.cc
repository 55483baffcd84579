/**
 * @file
 * DedupEngine implementation.
 *
 * Invariants maintained across operations (lines_[L] is line L's
 * LineRecord):
 *  - lines_[S] holds a hash  <=>  slot S stores live ciphertext
 *    <=>  lines_[S] has a live record, chained under hash(S)
 *    <=>  FSM marks S used.
 *  - A logical line L with valid data references exactly one slot:
 *    lines_[L].realAddr() when remapped, else its own slot L.
 *  - The reference count of slot S equals the number of logical lines
 *    referencing S (pinned once saturated at 255).
 *  - Slot S's encryption counter never decreases and is stored at its
 *    colocation home (the mapping entry of lines_[S] if null, else its
 *    inverted-hash entry if null, else the spill field of lines_[S]).
 */

#include "dedup/dedup_engine.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "nvm/nvm_device.hh"

namespace dewrite {

const char *
detectPolicyName(DetectPolicy policy)
{
    switch (policy) {
      case DetectPolicy::ConfirmRead:
        return "confirm-read";
      case DetectPolicy::WeakOnly:
        return "weak-only";
      case DetectPolicy::WeakStrong:
        return "weak-strong";
    }
    panic("bad detect policy");
}

DedupEngine::DedupEngine(const SystemConfig &config, NvmDevice &device,
                         MetadataCache &metadata, CounterModeEngine &cme,
                         Options options)
    : config_(config), device_(device), metadata_(metadata), cme_(cme),
      options_(options),
      hashIndexDiv_(config.memory.numLines ? config.memory.numLines : 1),
      fingerprinter_(options.hashFunction), fsm_(config.memory.numLines)
{
    // A spilled counter is a minor counter kept in 32 bits.
    DEWRITE_CHECK(options.counterBits <= 32,
                  "dedup engine: %u-bit minor counters do not fit the "
                  "record's 32-bit spill field",
                  options.counterBits);
    // Size every hot-path structure up front from the config hints so
    // nothing rehashes or grows a directory mid-run (DESIGN.md §5).
    const std::uint64_t hint = config.memory.workingSetHint();
    hashStore_.reserve(hint);
    lines_.reserve(config.memory.numLines);
    majors_.reserve(64);
}

DedupEngine::DedupEngine(const SystemConfig &config, NvmDevice &device,
                         MetadataCache &metadata, CounterModeEngine &cme)
    : DedupEngine(config, device, metadata, cme, Options())
{
}

std::uint64_t
DedupEngine::hashIndex(std::uint64_t hash) const
{
    return hashIndexDiv_.mod(hash);
}

std::uint64_t
DedupEngine::counterOf(LineAddr slot) const
{
    return counterOf(lines_.at(slot));
}

std::uint64_t
DedupEngine::counterOf(const LineRecord &record)
{
    if (const std::uint64_t *home = record.counterHome())
        return *home;
    return record.spilledCounter();
}

void
DedupEngine::setCounterOf(LineRecord &record, std::uint64_t counter)
{
    if (std::uint64_t *home = record.counterHome()) {
        *home = counter;
        if (record.spilled()) {
            record.unspill();
            --spilledCounters_;
        }
        return;
    }
    spilledCounters_ += record.spilled() ? 0 : 1;
    // Minor counters are at most 32 bits wide (checked at construction).
    record.spill(static_cast<std::uint32_t>(counter));
}

void
DedupEngine::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    scope.counter("duplicate_commits", dupCommits_,
                  "writes committed as duplicates", "duplicate_commits");
    scope.counter("unique_commits", uniqueCommits_,
                  "writes committed as unique lines", "unique_commits");
    scope.counter("silent_stores", silentStores_,
                  "writes identical to their own slot", "silent_stores");
    scope.counter("collision_mismatches", collisionMismatches_,
                  "fingerprint matches refuted by the confirmation read",
                  "collision_mismatches");
    scope.counter("missed_by_pna", missedByPna_,
                  "duplicates missed because PNA skipped the NVM query",
                  "missed_by_pna");
    scope.counter("missed_by_saturation", missedBySaturation_,
                  "duplicates missed on saturated reference counts",
                  "missed_by_saturation");
    scope.counter("reencryptions", reencryptions_,
                  "optimistic ciphertexts discarded and redone",
                  "reencryptions");
    scope.counter("unsafe_corruptions", unsafeCorruptions_,
                  "collisions trusted without confirmation (ablation)",
                  "unsafe_corruptions");
    scope.counter("counter_wraps", counterWraps_,
                  "minor-counter wraps absorbed by major counters");
    scope.gauge("overflow_counters",
                [this] {
                    return static_cast<double>(overflowCounters());
                },
                "slot counters homeless in both tables",
                "overflow_counters");
    scope.gauge("energy_pj",
                [this] { return static_cast<double>(totalEnergy()); },
                "dedup logic + engine-issued AES energy");

    obs::MetricRegistry::Scope detect = scope.scope("detect");
    detect.counter("detects", detects_,
                   "authoritative duplicate detections");
    detect.counter("confirm_reads", confirmReads_,
                   "candidate lines read for confirmation");
    detect.counter("confirm_reads_avoided", confirmReadsAvoided_,
                   "confirmations resolved by a cached strong "
                   "fingerprint instead of a read");
    detect.counter("strong_fp_computes", strongFpComputes_,
                   "strong fingerprints computed (incoming or stored)");
    detect.counter("strong_fp_hits", strongFpHits_,
                   "candidates compared via a valid cached fingerprint");
    detect.counter("strong_fp_caches", strongFpCaches_,
                   "fingerprints lazily installed on first confirmation");
    detect.gauge("latency_ps_total",
                 [this] {
                     return static_cast<double>(detectPicoseconds_);
                 },
                 "summed simulated detection latency");

    obs::MetricRegistry::Scope pad = scope.scope("pad_cache");
    pad.counter("hits", padCache_.hitCounter(),
                "pad lookups served from the host-side memo");
    pad.counter("misses", padCache_.missCounter(),
                "pad lookups that regenerated through AES");

    if (stageProfile_) {
        // Registered only under DEWRITE_STAGE_PROFILE=1 so the default
        // registry snapshot stays byte-identical to an unprofiled run.
        obs::MetricRegistry::Scope stage = scope.scope("stage");
        stage.gauge("digest_cycles",
                    [this] {
                        return static_cast<double>(stageCycles_.digest);
                    },
                    "host cycles fingerprinting lines");
        stage.gauge("probe_cycles",
                    [this] {
                        return static_cast<double>(stageCycles_.probe);
                    },
                    "host cycles in metadata probes");
        stage.gauge("pad_cycles",
                    [this] {
                        return static_cast<double>(stageCycles_.pad);
                    },
                    "host cycles generating AES pads");
        stage.gauge("confirm_read_cycles",
                    [this] {
                        return static_cast<double>(
                            stageCycles_.confirmRead);
                    },
                    "host cycles confirming candidates");
        stage.gauge("commit_cycles",
                    [this] {
                        return static_cast<double>(stageCycles_.commit);
                    },
                    "host cycles committing writes");
    }
}

std::uint64_t
DedupEngine::effectiveCounter(LineAddr slot) const
{
    const std::uint64_t *major = majors_.find(slot);
    return ((major ? *major : 0) << options_.counterBits) |
           counterOf(slot);
}

std::uint64_t
DedupEngine::bumpCounter(LineAddr slot)
{
    const std::uint64_t mask = (1ULL << options_.counterBits) - 1;
    const std::uint64_t minor = (counterOf(slot) + 1) & mask;
    if (minor == 0) {
        // Minor wrap: the major counter absorbs it so the effective
        // OTP counter keeps growing (split-counter discipline).
        ++majors_[slot];
        counterWraps_.increment();
    }
    // The caller re-homes the minor with setCounterOf() *after* its
    // table mutations; storing it here would race the colocation home.
    const std::uint64_t *major = majors_.find(slot);
    return ((major ? *major : 0) << options_.counterBits) | minor;
}

Time
DedupEngine::chargeCounterAccess(LineAddr slot, Time now)
{
    // The counter is read from its colocation home; when it has spilled
    // the probe still touches the mapping entry first (that is where
    // hardware would look).
    const LineRecord &record = lines_.at(slot);
    const MetadataTable table = record.isRemapped() && !record.holdsData()
        ? MetadataTable::InvertedHash
        : MetadataTable::Mapping;
    return metadata_.access(table, slot, false, now).latency;
}

const Line &
DedupEngine::padFor(LineAddr slot, std::uint64_t counter)
{
    obs::StageTimer timer(stageSink(stageCycles_.pad));
    return padCache_.get(cme_, slot, counter);
}

bool
DedupEngine::storedEquals(LineAddr slot, const Line &plaintext)
{
    // stored == plaintext  <=>  ciphertext == plaintext ^ pad; an
    // unwritten slot reads as the zero line, whose "decryption" is the
    // pad itself.
    const Line *ciphertext = device_.peekPtr(slot);
    const Line &pad = padFor(slot, effectiveCounter(slot));
    if (!ciphertext)
        return plaintext == pad;
    return equalsXor(*ciphertext, plaintext, pad);
}

Line
DedupEngine::decryptStored(LineAddr slot)
{
    const Line *ciphertext = device_.peekPtr(slot);
    const Line &pad = padFor(slot, effectiveCounter(slot));
    return ciphertext ? (*ciphertext ^ pad) : pad;
}

bool
DedupEngine::references(LineAddr init_addr, const LineRecord &line,
                        LineAddr slot)
{
    if (line.isRemapped())
        return line.realAddr() == slot;
    return init_addr == slot && line.holdsData() && line.written();
}

DetectOutcome
DedupEngine::detect(const Line &plaintext, Time now, bool allow_nvm_fill)
{
    DetectOutcome out;
    {
        obs::StageTimer timer(stageSink(stageCycles_.digest));
        out.hash = fingerprinter_.fingerprint(plaintext);
    }
    Time t = now + fingerprinter_.latency();
    energy_ += fingerprinter_.energy(config_.energy);

    MetadataAccessResult probe;
    {
        obs::StageTimer timer(stageSink(stageCycles_.probe));
        probe = metadata_.access(MetadataTable::HashStore,
                                 hashIndex(out.hash), false, t,
                                 allow_nvm_fill);
    }
    t += probe.latency;

    if (!probe.hit && !allow_nvm_fill) {
        // PNA: predicted non-duplicate and not cached on chip — skip the
        // in-NVM query and treat the line as unique (Section III-B2).
        // The functional scan below only *counts* the duplicates this
        // shortcut misses (the ~1.5% of Figure 12's gap); it charges
        // nothing.
        const ChainView chain = hashStore_.lookup(out.hash);
        unsigned scanned = 0;
        for (std::size_t i = chain.size(); i-- > 0;) {
            const LineAddr slot = chain[i];
            if (++scanned > options_.maxChainProbe)
                break;
            if (lines_.at(slot).reference() == HashStore::kMaxReference)
                continue;
            if (storedEquals(slot, plaintext)) {
                missedByPna_.increment();
                break;
            }
        }
        out.done = t;
        detects_.increment();
        detectPicoseconds_ += out.done - now;
        return out;
    }
    out.authoritative = true;

    // Resolve this write's detection tier once: a cryptographic
    // fingerprinter (the Table I comparator) is trusted outright — the
    // WeakOnly branch below, without the unsafe connotation — and any
    // other fingerprint follows the configured policy.
    const DetectPolicy mode = fingerprinter_.cryptographic()
        ? DetectPolicy::WeakOnly
        : options_.detect;

    // The incoming line's strong fingerprint is computed (and charged)
    // at most once per detection, lazily at the first candidate that
    // needs it.
    StrongFp incoming_fp;
    bool incoming_fp_ready = false;
    const auto incomingStrongFp = [&]() -> const StrongFp & {
        if (!incoming_fp_ready) {
            {
                obs::StageTimer timer(stageSink(stageCycles_.digest));
                incoming_fp = strongFingerprint(plaintext);
            }
            incoming_fp_ready = true;
            strongFpComputes_.increment();
            t += config_.timing.strongFpLine;
            energy_ += config_.energy.strongFpLine;
        }
        return incoming_fp;
    };

    // Probe newest-first: when a popular content's old records are
    // pinned at the reference cap, its freshest record is the one with
    // spare references.
    obs::StageTimer confirm_timer(stageSink(stageCycles_.confirmRead));
    const ChainView chain = hashStore_.lookup(out.hash);
    unsigned probes = 0;
    for (std::size_t i = chain.size(); i-- > 0;) {
        const LineAddr slot = chain[i];
        if (++probes > options_.maxChainProbe)
            break;
        const LineRecord &candidate = lines_.at(slot);
        const bool pinned =
            candidate.reference() == HashStore::kMaxReference;

        if (mode == DetectPolicy::WeakStrong && candidate.strongValid() &&
            !pinned) {
            // Strong tier: one 128-bit compare replaces the candidate's
            // confirmation read. Unequal fingerprints *prove* the
            // contents differ; equal ones are trusted the way hardware
            // would trust them — the kernel's collision rate is
            // negligible, including against CRC-forged inputs.
            const bool fp_equal =
                incomingStrongFp() == *hashStore_.strongFpOf(slot);
            t += config_.timing.lineCompare;
            energy_ += config_.energy.compareLine;
            confirmReadsAvoided_.increment();
            strongFpHits_.increment();
            if (fp_equal) {
                out.duplicate = true;
                out.dupSlot = slot;
                break;
            }
            collisionMismatches_.increment();
            continue;
        }

        // Fused compare against the stored ciphertext — equivalent to
        // decrypting and comparing, with no 256 B temporaries.
        const bool matches = storedEquals(slot, plaintext);
        if (pinned) {
            // Highly referenced line: pinned, not deduplicated against
            // (Section III-B2). Count the elimination this forgoes.
            if (matches)
                missedBySaturation_.increment();
            continue;
        }
        if (mode == DetectPolicy::WeakOnly) {
            // Trusted fingerprint: either the cryptographic comparator
            // (collision-free in practice) or the unsafe CRC ablation.
            // The functional comparison above only counts the silent
            // corruptions trusting the digest causes.
            out.duplicate = true;
            out.dupSlot = slot;
            if (!matches)
                unsafeCorruptions_.increment();
            break;
        }

        // Confirmation read (ConfirmRead mode, or a WeakStrong
        // candidate whose fingerprint is not cached yet): read the
        // candidate and compare byte-by-byte; the OTP for the
        // decryption is generated while the read is in flight. Only
        // the read's timing matters — the compare already ran against
        // the functional store.
        const Time counter_latency = chargeCounterAccess(slot, t);
        const NvmTiming access = device_.readTimed(slot, t);
        const Time otp_ready =
            t + counter_latency + config_.timing.aesLine;
        energy_ += config_.energy.aesLine();
        t = std::max(access.complete, otp_ready) +
            config_.timing.lineCompare;
        energy_ += config_.energy.compareLine;
        ++out.confirmReads;
        confirmReads_.increment();

        if (mode == DetectPolicy::WeakStrong) {
            // Lazy fill: the line just read (and decrypted) streams
            // through the fingerprint engine and the result lands in
            // the candidate's record — a posted metadata update, off
            // the critical path. A matching candidate's fingerprint is
            // the incoming line's own; a mismatching one is computed
            // from the stored content.
            StrongFp cached;
            if (matches) {
                cached = incomingStrongFp();
            } else {
                {
                    obs::StageTimer timer(stageSink(stageCycles_.digest));
                    cached = strongFingerprint(decryptStored(slot));
                }
                strongFpComputes_.increment();
                t += config_.timing.strongFpLine;
                energy_ += config_.energy.strongFpLine;
            }
            hashStore_.setStrongFp(slot, cached);
            strongFpCaches_.increment();
            metadata_.postUpdate(MetadataTable::HashStore,
                                 hashIndex(out.hash), t);
        }

        if (matches) {
            out.duplicate = true;
            out.dupSlot = slot;
            break;
        }
        collisionMismatches_.increment();
    }
    out.done = t;
    detects_.increment();
    detectPicoseconds_ += out.done - now;
    return out;
}

Time
DedupEngine::releaseOld(LineAddr init_addr, const LineRecord &line,
                        Time now)
{
    Time t = now;

    LineAddr slot = kInvalidAddr;
    if (line.isRemapped()) {
        slot = line.realAddr();
        if (slot == kNoData)
            return t;
    } else if (line.holdsData() && line.written()) {
        slot = init_addr;
    } else {
        return t; // Never written: nothing to release.
    }

    // Stale-hash cleaning (Section III-B2): the inverted hash table
    // recovers the fingerprint of the data the logical line is leaving.
    t += metadata_.access(MetadataTable::InvertedHash, slot, false, t)
             .latency;
    LineRecord &record = lines_.ref(slot);
    const std::uint64_t stale_hash = record.hash();
    // The stale record's decrement is a posted read-modify-write: a
    // stale hash only yields a benign failed comparison later, so it
    // never blocks the write path.
    t += metadata_.postUpdate(MetadataTable::HashStore,
                              hashIndex(stale_hash), t)
             .latency;

    if (hashStore_.dropReference(stale_hash, slot, record)) {
        // Last reference died: reclaim the slot. The counter keeps its
        // value across the free so a future allocation never reuses an
        // OTP.
        const std::uint64_t counter = counterOf(record);
        record.clearHash();
        t += metadata_.access(MetadataTable::InvertedHash, slot, true, t)
                 .latency;
        setCounterOf(record, counter);
        fsm_.release(slot);
        t += metadata_.access(MetadataTable::Fsm, slot, true, t).latency;
    }
    return t;
}

WriteCommit
DedupEngine::commitDuplicate(LineAddr init_addr, const DetectOutcome &detect,
                             Time now)
{
    if (!detect.duplicate)
        panic("commitDuplicate without a confirmed duplicate");

    obs::StageTimer timer(stageSink(stageCycles_.commit));
    WriteCommit commit;
    commit.slot = detect.dupSlot;

    LineRecord &line = lines_.ref(init_addr);
    if (references(init_addr, line, detect.dupSlot)) {
        // Silent store: the logical line already points at this exact
        // content; nothing to update.
        silentStores_.increment();
        dupCommits_.increment();
        commit.done = now;
        return commit;
    }

    Time t = now;

    // Take the new reference before releasing the old one, so a
    // self-release can never momentarily free the slot being joined.
    t += metadata_.access(MetadataTable::HashStore, hashIndex(detect.hash),
                          true, t)
             .latency;
    if (!hashStore_.addReference(lines_.ref(detect.dupSlot)))
        panic("reference saturated between detect and commit");

    t = releaseOld(init_addr, line, t);

    const std::uint64_t own_counter = counterOf(line);
    line.remap(detect.dupSlot);
    t += metadata_.access(MetadataTable::Mapping, init_addr, true, t)
             .latency;
    setCounterOf(line, own_counter);

    line.markWritten();
    dupCommits_.increment();
    commit.done = t;
    return commit;
}

WriteCommit
DedupEngine::commitUnique(LineAddr init_addr, const Line &plaintext,
                          std::uint64_t hash, Time now, Time encrypt_ready)
{
    obs::StageTimer timer(stageSink(stageCycles_.commit));
    WriteCommit commit;
    Time t = now;
    LineAddr slot;

    LineRecord &line = lines_.ref(init_addr);
    const bool owns_slot_exclusively = !line.isRemapped() &&
        line.holdsData() && line.written() && line.reference() == 1;

    if (owns_slot_exclusively) {
        // In-place overwrite: only this logical line references its
        // slot, so the old content can simply be replaced after its
        // stale hash record is dropped.
        slot = init_addr;
        t += metadata_.access(MetadataTable::InvertedHash, slot, true, t)
                 .latency;
        const std::uint64_t stale_hash = line.hash();
        t += metadata_.postUpdate(MetadataTable::HashStore,
                                  hashIndex(stale_hash), t)
                 .latency;
        if (!hashStore_.dropReference(stale_hash, slot, line))
            panic("exclusive slot's stale record did not die");
    } else {
        t = releaseOld(init_addr, line, t);
        slot = fsm_.allocatePreferring(init_addr);
        if (slot == kInvalidAddr)
            fatal("NVM is full: no free slot for a unique write");
        t += metadata_.access(MetadataTable::Fsm, slot, true, t).latency;
    }
    LineRecord &slot_record = slot == init_addr ? line : lines_.ref(slot);

    if (slot != init_addr && !slot_record.isRemapped()) {
        // The allocator handed us the slot of a never-written logical
        // line; mark that line "remapped to nothing" so a read of it
        // cannot alias the foreign data (DESIGN.md §5).
        const std::uint64_t foreign_counter = counterOf(slot_record);
        slot_record.remap(kNoData);
        t += metadata_.access(MetadataTable::Mapping, slot, true, t)
                 .latency;
        setCounterOf(slot_record, foreign_counter);
    }

    // Bump the slot counter and produce the ciphertext. A schedule that
    // overlapped encryption with detection encrypted optimistically for
    // the line's own slot; if the commit landed elsewhere that
    // ciphertext is useless and the AES runs again.
    const std::uint64_t counter = bumpCounter(slot);
    const std::uint64_t minor_counter =
        counter & ((1ULL << options_.counterBits) - 1);
    const bool reencrypt = slot != init_addr;
    Time ciphertext_ready;
    if (reencrypt) {
        reencryptions_.increment();
        energy_ += config_.energy.aesLine();
        ciphertext_ready = t + config_.timing.aesLine;
    } else {
        ciphertext_ready = std::max(encrypt_ready, t);
    }

    const Line ciphertext = plaintext ^ padFor(slot, counter);
    const std::size_t bits = options_.reducer
        ? options_.reducer->onWrite(slot, plaintext, counter)
        : kLineBits;
    const Time write_start = std::max(t, ciphertext_ready);
    const NvmTiming write = device_.write(slot, ciphertext, write_start,
                                          bits);

    // Install the new metadata; these cache updates overlap the 300 ns
    // cell write.
    Time tm = t;
    slot_record.setHash(hash);
    tm += metadata_.access(MetadataTable::InvertedHash, slot, true, tm)
              .latency;
    hashStore_.insert(hash, slot, slot_record);
    // A brand-new record: no-fetch allocate (nothing to read-modify).
    tm += metadata_.insertEntry(MetadataTable::HashStore, hashIndex(hash),
                                tm)
              .latency;

    if (slot == init_addr) {
        if (line.isRemapped())
            line.clearRemap();
    } else {
        // Remapping evicts whatever the mapping entry held; when the
        // entry was null it was the colocation home of slot
        // init_addr's own counter (possibly protecting shared data
        // still stored there), which must move to a new home.
        const std::uint64_t own_counter = counterOf(line);
        line.remap(slot);
        setCounterOf(line, own_counter);
    }
    tm += metadata_.access(MetadataTable::Mapping, init_addr, true, tm)
              .latency;
    setCounterOf(slot_record, minor_counter);

    line.markWritten();
    uniqueCommits_.increment();

    commit.slot = slot;
    commit.wroteLine = true;
    commit.reencrypted = reencrypt;
    commit.bitsProgrammed = bits;
    commit.done = std::max(write.complete, tm);
    return commit;
}

ReadOutcome
DedupEngine::read(LineAddr init_addr, Time now, bool want_data)
{
    ReadOutcome out;
    Time t = now +
             metadata_.access(MetadataTable::Mapping, init_addr, false, now)
                 .latency;

    const LineRecord &line = lines_.at(init_addr);
    LineAddr slot;
    Time counter_latency = 0;
    if (line.isRemapped()) {
        out.remapped = true;
        slot = line.realAddr();
        if (slot == kNoData) {
            out.done = t;
            return out; // Sentinel: logical line holds no data.
        }
        // The shared slot's counter lives at *its* colocation home,
        // which costs a second metadata access.
        counter_latency = chargeCounterAccess(slot, t);
    } else {
        if (!line.written() || !line.holdsData()) {
            out.done = t;
            return out; // Never written: reads as zero.
        }
        // Counter is colocated in the mapping entry just accessed —
        // this is the payoff of Section III-C on the read path.
        slot = init_addr;
    }

    const NvmTiming access = device_.readTimed(slot, t);
    const Time otp_ready =
        t + counter_latency + config_.timing.aesLine;
    energy_ += config_.energy.aesLine();

    if (want_data) {
        // Decrypt straight from the stored line (an unwritten slot
        // reads as zero, whose decryption is the pad itself).
        const Line *ciphertext = device_.peekPtr(slot);
        const Line &pad = padFor(slot, effectiveCounter(slot));
        out.data = ciphertext ? (*ciphertext ^ pad) : pad;
    }
    out.valid = true;
    out.done = std::max(access.complete, otp_ready) +
               config_.timing.otpXor;
    return out;
}

} // namespace dewrite
