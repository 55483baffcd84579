/**
 * @file
 * MetadataAuditor tests: a clean engine audits clean, and each
 * deliberately corrupted table relationship — dangling inverted-hash
 * entry, refcount mismatch, double-homed counter, stray hash record,
 * bitmap drift, dangling mapping — is reported under the right named
 * invariant with usable context.
 */

#include "dedup/metadata_auditor.hh"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/crc32.hh"
#include "common/rng.hh"
#include "dedup/dedup_engine.hh"
#include "dedup/recovery.hh"
#include "nvm/nvm_device.hh"
#include "sim/system.hh"

#include "scoped_env.hh"

namespace dewrite {

/**
 * Test-only mutable access to the engine's tables (a friend of
 * DedupEngine). Production code corrupts nothing; the auditor tests
 * must, to prove each invariant is actually watched.
 */
class MetadataAuditorTestPeer
{
  public:
    static HashStore &hashStore(DedupEngine &e) { return e.hashStore_; }
    static LineRecord &line(DedupEngine &e, LineAddr addr)
    {
        return e.lines_.ref(addr);
    }
    static FreeSpaceTable &fsm(DedupEngine &e) { return e.fsm_; }
    static Line decryptStored(DedupEngine &e, LineAddr slot)
    {
        return e.decryptStored(slot);
    }
};

namespace {

class MetadataAuditorTest : public ::testing::Test
{
  protected:
    MetadataAuditorTest()
        : device_(config()), cme_(key()),
          metadata_(config(), device_, config().memory.numLines),
          engine_(config(), device_, metadata_, cme_)
    {
    }

    static const SystemConfig &
    config()
    {
        static SystemConfig instance = [] {
            SystemConfig c;
            c.memory.numLines = 1 << 12;
            return c;
        }();
        return instance;
    }

    static AesKey
    key()
    {
        AesKey k{};
        k[5] = 0x17;
        return k;
    }

    WriteCommit
    writeLine(LineAddr addr, const Line &data)
    {
        const DetectOutcome det = engine_.detect(data, now_, true);
        WriteCommit commit;
        if (det.duplicate) {
            commit = engine_.commitDuplicate(addr, det, det.done);
        } else {
            commit = engine_.commitUnique(
                addr, data, det.hash, det.done,
                det.done + config().timing.aesLine);
        }
        now_ = commit.done;
        return commit;
    }

    /** A workload with uniques, duplicates, and overwrites. */
    void
    populate()
    {
        Rng rng(1234);
        const Line a = Line::random(rng);
        const Line b = Line::random(rng);
        for (LineAddr addr = 1; addr <= 24; ++addr)
            writeLine(addr, Line::random(rng));
        for (LineAddr addr = 30; addr < 38; ++addr)
            writeLine(addr, a); // Duplicates of one content.
        for (LineAddr addr = 40; addr < 44; ++addr)
            writeLine(addr, b);
        for (LineAddr addr = 1; addr <= 6; ++addr)
            writeLine(addr, Line::random(rng)); // Overwrites.
    }

    AuditInvariant
    expectViolation()
    {
        const auto violation = MetadataAuditor(engine_).check();
        EXPECT_TRUE(violation.has_value());
        if (!violation)
            std::abort();
        EXPECT_FALSE(violation->detail.empty());
        return violation->invariant;
    }

    NvmDevice device_;
    CounterModeEngine cme_;
    MetadataCache metadata_;
    DedupEngine engine_;
    Time now_ = 0;
};

TEST_F(MetadataAuditorTest, CleanEngineAuditsClean)
{
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    populate();
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    MetadataAuditor(engine_).enforce("test"); // Must not die.
}

TEST_F(MetadataAuditorTest, DanglingInvertedHashEntryIsNamed)
{
    populate();
    // A data slot appears out of nowhere: no hash-store record backs
    // its fingerprint (the "dangling inverted-hash entry" corruption).
    MetadataAuditorTestPeer::line(engine_, 3000).setHash(0xabcdef);
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::DataSlotHasHashRecord);
    EXPECT_EQ(violation->slot, 3000u);
    EXPECT_EQ(violation->expected, 0xabcdefu);
}

TEST_F(MetadataAuditorTest, ReferenceCountMismatchIsNamed)
{
    populate();
    // Slot 30's content is shared 8 ways; a spurious extra reference
    // makes the recorded count disagree with the mapping walk.
    const LineAddr slot = 30;
    ASSERT_TRUE(engine_.lines().at(slot).holdsData());
    ASSERT_TRUE(MetadataAuditorTestPeer::hashStore(engine_).addReference(
        MetadataAuditorTestPeer::line(engine_, slot)));
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::ReferenceCountMatches);
    EXPECT_EQ(violation->slot, slot);
    EXPECT_EQ(violation->actual, violation->expected + 1);
}

TEST_F(MetadataAuditorTest, DoubleHomedCounterIsNamed)
{
    populate();
    // Slot 10 keeps its own data, so its counter home is its (null)
    // mapping entry. A stale spilled counter in its record means the
    // counter is double-homed.
    const LineAddr slot = 10;
    ASSERT_FALSE(engine_.lines().at(slot).isRemapped());
    MetadataAuditorTestPeer::line(engine_, slot).spill(7);
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant, AuditInvariant::CounterSingleHome);
    EXPECT_EQ(violation->slot, slot);
    EXPECT_EQ(violation->actual, 7u);
}

TEST_F(MetadataAuditorTest, StrayHashRecordIsNamed)
{
    populate();
    // A record pointing at a slot that holds no data (or other data)
    // is a stale-cleaning failure.
    MetadataAuditorTestPeer::hashStore(engine_).insert(
        0xdead, 3500, MetadataAuditorTestPeer::line(engine_, 3500));
    EXPECT_EQ(expectViolation(),
              AuditInvariant::HashRecordMatchesSlot);
}

TEST_F(MetadataAuditorTest, FsmDriftIsNamedBothDirections)
{
    populate();
    // Allocated-but-empty drift.
    MetadataAuditorTestPeer::fsm(engine_).allocate(3600);
    EXPECT_EQ(expectViolation(), AuditInvariant::FsmMatchesDataSlots);
    MetadataAuditorTestPeer::fsm(engine_).release(3600);
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());

    // Data-but-free drift: the slot walk reports the same invariant.
    const LineAddr slot = 12;
    ASSERT_TRUE(engine_.lines().at(slot).holdsData());
    MetadataAuditorTestPeer::fsm(engine_).release(slot);
    EXPECT_EQ(expectViolation(), AuditInvariant::FsmMatchesDataSlots);
}

TEST_F(MetadataAuditorTest, DanglingMappingIsNamed)
{
    populate();
    // Logical 100 remapped to a slot that holds nothing.
    MetadataAuditorTestPeer::line(engine_, 100).remap(3700);
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::MappingTargetHoldsData);
    EXPECT_EQ(violation->logical, 100u);
    EXPECT_EQ(violation->slot, 3700u);
}

TEST_F(MetadataAuditorTest, WrongStrongFingerprintIsNamed)
{
    populate();
    // Seed a *valid-flagged* fingerprint that does not match the slot's
    // stored content: the two-tier detector would trust it and merge
    // distinct lines, so the auditor must call it out by name.
    const LineAddr slot = 30;
    ASSERT_TRUE(engine_.lines().at(slot).holdsData());
    MetadataAuditorTestPeer::hashStore(engine_).setStrongFp(
        slot, StrongFp{ 0xdeadbeefu, 0xfeedfaceu });
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::StrongFpMatchesStoredLine);
    EXPECT_EQ(violation->slot, slot);
    EXPECT_STREQ(auditInvariantName(violation->invariant),
                 "strong-fp-matches-stored-line");
}

TEST_F(MetadataAuditorTest, CorrectStrongFingerprintAuditsClean)
{
    populate();
    // The honest cache — the fingerprint of what the slot really
    // stores — must not trip the new invariant.
    const LineAddr slot = 30;
    ASSERT_TRUE(engine_.lines().at(slot).holdsData());
    MetadataAuditorTestPeer::hashStore(engine_).setStrongFp(
        slot,
        strongFingerprint(
            MetadataAuditorTestPeer::decryptStored(engine_, slot)));
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
}

TEST_F(MetadataAuditorTest, FirstViolationIsDeterministic)
{
    populate();
    // Two independent corruptions: the report must pick the same one
    // every time (walk order, not hash-table luck).
    MetadataAuditorTestPeer::line(engine_, 3000).setHash(0x111111);
    MetadataAuditorTestPeer::line(engine_, 3001).setHash(0x222222);
    for (int i = 0; i < 3; ++i) {
        const auto violation = MetadataAuditor(engine_).check();
        ASSERT_TRUE(violation.has_value());
        EXPECT_EQ(violation->slot, 3000u);
    }
}

TEST_F(MetadataAuditorTest, RecoveryRebuildPassesAuditUnderEnv)
{
    populate();
    ScopedEnv env("DEWRITE_AUDIT", "1");
    RecoveryManager recovery(engine_);
    recovery.simulateCrashDamage();
    recovery.rebuild(); // enforce("recovery") runs inside; must not die.
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
}

TEST(MetadataAuditorDeathTest, EnforceNamesTheInvariant)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SystemConfig config;
    config.memory.numLines = 1 << 10;
    NvmDevice device(config);
    AesKey key{};
    MetadataCache metadata(config, device, config.memory.numLines);
    CounterModeEngine cme(key);
    DedupEngine engine(config, device, metadata, cme);
    MetadataAuditorTestPeer::line(engine, 5).setHash(0xbeef);
    EXPECT_DEATH(MetadataAuditor(engine).enforce("test"),
                 "data-slot-has-hash-record");
}

TEST(MetadataAuditorEnvTest, AuditDisabledByDefault)
{
    ::unsetenv("DEWRITE_AUDIT");
    EXPECT_FALSE(auditEnabled());
}

TEST(MetadataAuditorEnvTest, AuditFlagParses)
{
    {
        ScopedEnv env("DEWRITE_AUDIT", "1");
        EXPECT_TRUE(auditEnabled());
    }
    {
        ScopedEnv env("DEWRITE_AUDIT", "0");
        EXPECT_FALSE(auditEnabled());
    }
}

TEST(MetadataAuditorEnvTest, EpochDefaultsAndParses)
{
    ::unsetenv("DEWRITE_AUDIT_EPOCH");
    EXPECT_EQ(auditEpochWrites(), 10000u);
    ScopedEnv env("DEWRITE_AUDIT_EPOCH", "128");
    EXPECT_EQ(auditEpochWrites(), 128u);
}

TEST(MetadataAuditorEnvDeathTest, MalformedFlagDiesLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_AUDIT", "yes");
    EXPECT_EXIT(auditEnabled(), ::testing::ExitedWithCode(1),
                "DEWRITE_AUDIT");
}

TEST(MetadataAuditorEnvDeathTest, MalformedEpochDiesLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_AUDIT_EPOCH", "0");
    EXPECT_EXIT(auditEpochWrites(), ::testing::ExitedWithCode(1),
                "DEWRITE_AUDIT_EPOCH");
}

TEST(MetadataAuditorSystemTest, EpochAndRunEndAuditsFire)
{
    // A full System honors the env contract: with a small audit epoch,
    // several epoch audits plus the run-end audit execute cleanly.
    ScopedEnv audit("DEWRITE_AUDIT", "1");
    ScopedEnv epoch("DEWRITE_AUDIT_EPOCH", "16");
    SystemConfig config;
    config.memory.numLines = 1 << 12;
    System system(config, SchemeOptions{});
    Rng rng(99);
    const Line shared = Line::random(rng);
    for (LineAddr addr = 0; addr < 48; ++addr)
        system.write(addr, addr % 3 ? Line::random(rng) : shared);
    const auto &controller =
        dynamic_cast<const DeWriteController &>(system.controller());
    EXPECT_GE(controller.auditsRun(), 3u);
    controller.auditNow("test");
}

} // namespace
} // namespace dewrite
