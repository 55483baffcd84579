/**
 * @file
 * Two-tier detection tests (DESIGN.md §5j): fingerprint caching and
 * invalidation through the record lifecycle, confirm-read elimination,
 * decision parity with the paper's confirm-read mode, and fingerprint
 * rewarming through recovery.
 */

#include "dedup/dedup_engine.hh"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "dedup/metadata_auditor.hh"
#include "dedup/recovery.hh"
#include "nvm/nvm_device.hh"
#include "trace/collision_trace.hh"

namespace dewrite {
namespace {

const SystemConfig &
config()
{
    static SystemConfig instance = [] {
        SystemConfig c;
        c.memory.numLines = 1 << 16;
        return c;
    }();
    return instance;
}

AesKey
key()
{
    AesKey k{};
    k[5] = 0x77;
    return k;
}

/** An engine stack under one detection policy, with a write helper. */
class PolicyEngine
{
  public:
    explicit PolicyEngine(DetectPolicy policy)
        : device_(config()), cme_(key()),
          metadata_(config(), device_, config().memory.numLines),
          engine_(config(), device_, metadata_, cme_,
                  DedupEngine::Options{ policy })
    {
    }

    /** Full write; returns the detection outcome for assertions. */
    DetectOutcome
    write(LineAddr addr, const Line &data)
    {
        const DetectOutcome det = engine_.detect(data, now_, true);
        const WriteCommit commit = det.duplicate
            ? engine_.commitDuplicate(addr, det, det.done)
            : engine_.commitUnique(addr, data, det.hash, det.done,
                                   det.done + config().timing.aesLine);
        now_ = commit.done;
        return det;
    }

    Line
    read(LineAddr addr)
    {
        const ReadOutcome out = engine_.read(addr, now_);
        now_ = out.done;
        return out.data;
    }

    DedupEngine &engine() { return engine_; }

  private:
    NvmDevice device_;
    CounterModeEngine cme_;
    MetadataCache metadata_;
    DedupEngine engine_;
    Time now_ = 0;
};

TEST(DetectPolicyTest, NamesRoundTrip)
{
    EXPECT_STREQ(detectPolicyName(DetectPolicy::ConfirmRead),
                 "confirm-read");
    EXPECT_STREQ(detectPolicyName(DetectPolicy::WeakOnly), "weak-only");
    EXPECT_STREQ(detectPolicyName(DetectPolicy::WeakStrong),
                 "weak-strong");
}

TEST(ConfirmReadTest, NeverTouchesTheStrongTier)
{
    // The paper's policy reads every weak-matching candidate, refuted
    // collisions and true duplicates alike, and never computes or
    // caches a strong fingerprint.
    PolicyEngine pe(DetectPolicy::ConfirmRead);
    Rng rng(509);
    const Line base = Line::random(rng);
    const Line forged = forgeCrc32Collision(base, rng);

    pe.write(1, base);
    const DetectOutcome refuted = pe.write(2, forged);
    EXPECT_FALSE(refuted.duplicate);
    EXPECT_EQ(refuted.confirmReads, 1u);

    // Newest-first: slot 2 (forged) is read and refuted, then slot 1
    // is read and confirmed.
    for (LineAddr addr = 3; addr < 6; ++addr) {
        const DetectOutcome det = pe.write(addr, base);
        EXPECT_TRUE(det.duplicate) << addr;
        EXPECT_EQ(det.dupSlot, LineAddr{ 1 }) << addr;
        EXPECT_EQ(det.confirmReads, 2u) << addr;
    }
    EXPECT_EQ(pe.engine().confirmReads(), 7u);
    EXPECT_EQ(pe.engine().collisionMismatches(), 4u);
    EXPECT_EQ(pe.engine().confirmReadsAvoided(), 0u);
    EXPECT_EQ(pe.engine().strongFpComputes(), 0u);
    EXPECT_EQ(pe.engine().strongFpHits(), 0u);
    EXPECT_EQ(pe.engine().strongFpCaches(), 0u);
    EXPECT_EQ(pe.engine().hashStore().strongFpOf(1), nullptr);
    EXPECT_EQ(pe.engine().hashStore().strongFpOf(2), nullptr);
    EXPECT_EQ(pe.read(2), forged);
    EXPECT_EQ(pe.read(5), base);
    EXPECT_EQ(pe.engine().unsafeCorruptions(), 0u);
}

TEST(WeakOnlyTest, ForgedCollisionIsMergedAndCounted)
{
    // The unsafe ablation trusts the CRC: a forged collision is merged
    // into the victim's slot without a read, and the functional
    // compare counts the corruption it causes.
    PolicyEngine pe(DetectPolicy::WeakOnly);
    Rng rng(510);
    const Line base = Line::random(rng);
    const Line forged = forgeCrc32Collision(base, rng);

    pe.write(1, base);
    const DetectOutcome det = pe.write(2, forged);
    EXPECT_TRUE(det.duplicate);
    EXPECT_EQ(det.dupSlot, LineAddr{ 1 });
    EXPECT_EQ(det.confirmReads, 0u);
    EXPECT_EQ(pe.engine().unsafeCorruptions(), 1u);
    EXPECT_EQ(pe.engine().collisionMismatches(), 0u);
    EXPECT_EQ(pe.engine().confirmReads(), 0u);
    EXPECT_EQ(pe.engine().strongFpComputes(), 0u);

    // The corruption is real: line 2 now reads the victim's content.
    EXPECT_EQ(pe.read(2), base);
    EXPECT_EQ(pe.read(1), base);
}

TEST(WeakStrongTest, FirstConfirmationCachesTheFingerprint)
{
    PolicyEngine pe(DetectPolicy::WeakStrong);
    Rng rng(501);
    const Line data = Line::random(rng);

    // Unique insert: no candidate, nothing cached yet.
    const DetectOutcome first = pe.write(1, data);
    EXPECT_FALSE(first.duplicate);
    EXPECT_EQ(pe.engine().strongFpCaches(), 0u);

    // First weak match: the fingerprint is not cached, so this pays
    // the confirmation read — and installs the fingerprint.
    const DetectOutcome second = pe.write(2, data);
    EXPECT_TRUE(second.duplicate);
    EXPECT_EQ(second.confirmReads, 1u);
    EXPECT_EQ(pe.engine().strongFpCaches(), 1u);
    EXPECT_NE(pe.engine().hashStore().strongFpOf(1), nullptr);

    // From now on the cached fingerprint answers: no more reads.
    const DetectOutcome third = pe.write(3, data);
    EXPECT_TRUE(third.duplicate);
    EXPECT_EQ(third.confirmReads, 0u);
    EXPECT_GE(pe.engine().confirmReadsAvoided(), 1u);
    EXPECT_GE(pe.engine().strongFpHits(), 1u);
}

TEST(WeakStrongTest, ForgedCollisionCachesTheStoredFingerprint)
{
    PolicyEngine pe(DetectPolicy::WeakStrong);
    Rng rng(502);
    const Line base = Line::random(rng);
    const Line forged = forgeCrc32Collision(base, rng);

    pe.write(1, base);
    // The forged line weak-matches slot 1 but the confirmation read
    // refutes it; the mismatch still warms the victim's fingerprint
    // (computed from the stored content, not the incoming line).
    const DetectOutcome det = pe.write(2, forged);
    EXPECT_FALSE(det.duplicate);
    EXPECT_EQ(pe.engine().collisionMismatches(), 1u);
    EXPECT_EQ(pe.engine().strongFpCaches(), 1u);
    const StrongFp *cached = pe.engine().hashStore().strongFpOf(1);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(*cached, strongFingerprint(base));

    // A later probe of the same chain resolves both candidates by
    // fingerprint: the forged content dedups against slot 2, the
    // victim's cached fingerprint rejects without a read.
    const DetectOutcome again = pe.write(3, forged);
    EXPECT_TRUE(again.duplicate);
    EXPECT_EQ(pe.read(3), forged);
    EXPECT_EQ(pe.read(1), base);
    EXPECT_EQ(pe.engine().unsafeCorruptions(), 0u);
}

TEST(WeakStrongTest, RewriteInvalidatesTheCachedFingerprint)
{
    PolicyEngine pe(DetectPolicy::WeakStrong);
    Rng rng(503);
    const Line old_data = Line::random(rng);
    const Line new_data = Line::random(rng);

    pe.write(1, old_data);
    pe.write(2, old_data); // Caches the fingerprint for slot 1.
    ASSERT_NE(pe.engine().hashStore().strongFpOf(1), nullptr);

    // Rewriting both referents drops the record entirely; the content's
    // next appearance starts from an invalid fingerprint again (slot
    // contents are immutable while a record lives, so a cache can only
    // die with its record — never go stale).
    pe.write(1, new_data);
    pe.write(2, new_data);
    EXPECT_EQ(pe.engine().hashStore().strongFpOf(1), nullptr);

    const DetectOutcome det = pe.write(3, old_data);
    EXPECT_FALSE(det.duplicate);
    EXPECT_EQ(pe.read(1), new_data);
    EXPECT_EQ(pe.read(3), old_data);
}

TEST(WeakStrongTest, DecisionsMatchConfirmReadOnMixedStream)
{
    // The two confirming modes must produce byte-identical functional
    // results on any collision-free stream; timing may differ, the
    // dedup decisions and stored data may not.
    PolicyEngine confirm(DetectPolicy::ConfirmRead);
    PolicyEngine strong(DetectPolicy::WeakStrong);
    Rng rng(504);
    std::vector<Line> pool;
    for (int i = 0; i < 600; ++i) {
        const LineAddr addr = rng.nextBelow(96);
        Line data;
        if (!pool.empty() && rng.chance(0.55)) {
            data = pool[rng.nextBelow(pool.size())];
        } else {
            data = Line::random(rng);
            pool.push_back(data);
        }
        const DetectOutcome a = confirm.write(addr, data);
        const DetectOutcome b = strong.write(addr, data);
        ASSERT_EQ(a.duplicate, b.duplicate) << "write " << i;
        ASSERT_EQ(a.dupSlot, b.dupSlot) << "write " << i;
    }
    EXPECT_EQ(confirm.engine().duplicateCommits(),
              strong.engine().duplicateCommits());
    EXPECT_EQ(confirm.engine().uniqueCommits(),
              strong.engine().uniqueCommits());
    for (LineAddr addr = 0; addr < 96; ++addr)
        ASSERT_EQ(confirm.read(addr), strong.read(addr)) << addr;
    // And the point of the tier: the strong engine confirmed far less.
    EXPECT_LT(strong.engine().confirmReads(),
              confirm.engine().confirmReads());
    EXPECT_GT(strong.engine().confirmReadsAvoided(), 0u);
}

TEST(WeakStrongTest, RecoveryRewarmsTheFingerprintCaches)
{
    PolicyEngine pe(DetectPolicy::WeakStrong);
    Rng rng(507);
    std::vector<Line> contents;
    for (LineAddr addr = 0; addr < 24; ++addr) {
        const Line data = Line::random(rng);
        contents.push_back(data);
        pe.write(addr, data);
    }

    RecoveryManager recovery(pe.engine());
    recovery.simulateCrashDamage();
    const RecoveryReport report = recovery.rebuild();
    EXPECT_EQ(report.recordsRebuilt, 24u);
    EXPECT_EQ(report.strongFpsRebuilt, 24u);
    EXPECT_FALSE(MetadataAuditor(pe.engine()).check().has_value());

    // The rebuilt caches are live: the very first duplicate probe after
    // recovery resolves by fingerprint, with no confirmation read.
    const DetectOutcome det = pe.write(100, contents[5]);
    EXPECT_TRUE(det.duplicate);
    EXPECT_EQ(det.confirmReads, 0u);
    EXPECT_GT(pe.engine().confirmReadsAvoided(), 0u);
    for (LineAddr addr = 0; addr < 24; ++addr)
        ASSERT_EQ(pe.read(addr), contents[addr]);
}

TEST(WeakStrongTest, ConfirmReadRecoveryLeavesCachesCold)
{
    PolicyEngine pe(DetectPolicy::ConfirmRead);
    Rng rng(508);
    for (LineAddr addr = 0; addr < 8; ++addr)
        pe.write(addr, Line::random(rng));
    RecoveryManager recovery(pe.engine());
    recovery.simulateCrashDamage();
    const RecoveryReport report = recovery.rebuild();
    EXPECT_EQ(report.recordsRebuilt, 8u);
    EXPECT_EQ(report.strongFpsRebuilt, 0u);
}

} // namespace
} // namespace dewrite
