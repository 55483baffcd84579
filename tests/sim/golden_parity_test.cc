/**
 * @file
 * Golden parity: the flat-container hot path reproduces the seed
 * implementation bit for bit.
 *
 * The constants below were generated by running this exact matrix
 * against the pre-migration library (node-based std::unordered_map /
 * std::unordered_set everywhere) and fingerprinting every cell with
 * resultFingerprint(). The migrated implementation — FlatMap,
 * PagedArray, DenseLineStore, the small-buffer HashStore chains, the
 * batched AES pad and the memoized Zipf sampler — must reproduce every
 * fingerprint exactly, at one worker thread and at eight. Any change
 * to any user-visible counter, latency, energy number, or stat breaks
 * this test by construction.
 *
 * The Catalog cases widen the pin to all 20 catalog apps at the
 * default SystemConfig: one CRC-32 per scheme over the cells' result
 * signatures, and one per detection policy over their decision
 * signatures, at 6000 events per cell (what the benches' --quick
 * runs use, so `bench_ablation_detection --quick` reports the same
 * decision fingerprints).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32.hh"
#include "controller/dewrite_controller.hh"
#include "dedup/recovery.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"

#include "golden_matrix.hh"

namespace dewrite {
namespace {

TEST(GoldenParity, MatrixSingleThread)
{
    checkMatrix(1);
}

TEST(GoldenParity, MatrixEightThreads)
{
    // The runner partitions cells across workers; per-cell results must
    // not depend on scheduling.
    checkMatrix(8);
}

/** Events per Catalog cell; fixed, so DEWRITE_EVENTS cannot move it. */
constexpr std::uint64_t kCatalogEvents = 6000;

/** CRC-32 over @p signature of every catalog cell, in catalog order. */
std::uint32_t
catalogFingerprint(const SchemeOptions &scheme, const SystemConfig &config,
                   std::string (*signature)(const ExperimentResult &))
{
    const auto cells =
        runMatrix(appCatalog(), { scheme }, config, kCatalogEvents);
    std::string signatures;
    for (const ExperimentResult &cell : cells)
        signatures += signature(cell);
    return crc32(reinterpret_cast<const std::uint8_t *>(signatures.data()),
                 signatures.size());
}

std::uint32_t
catalogResultFingerprint(const SchemeOptions &scheme)
{
    return catalogFingerprint(scheme, SystemConfig(), resultSignature);
}

TEST(GoldenParity, CatalogSecureBaseline)
{
    EXPECT_EQ(catalogResultFingerprint(secureBaselineScheme()),
              271930638u);
}

TEST(GoldenParity, CatalogDewriteDirect)
{
    EXPECT_EQ(catalogResultFingerprint(dewriteScheme(DedupMode::Direct)),
              981420378u);
}

TEST(GoldenParity, CatalogDewriteParallel)
{
    EXPECT_EQ(
        catalogResultFingerprint(dewriteScheme(DedupMode::Parallel)),
        903438988u);
}

TEST(GoldenParity, CatalogDewritePredicted)
{
    EXPECT_EQ(
        catalogResultFingerprint(dewriteScheme(DedupMode::Predicted)),
        2461834977u);
}

// Detection policies on one core with PNA off (bench_ablation_detection
// explains both choices): every policy resolves the same candidates to
// the same verdicts on these collision-free traces, so all three share
// one decision fingerprint.
std::uint32_t
catalogDetectionFingerprint(DetectPolicy policy)
{
    SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    scheme.dewrite.detect = policy;
    scheme.dewrite.pnaEnabled = false;
    SystemConfig config;
    config.numCores = 1;
    return catalogFingerprint(scheme, config, detectionSignature);
}

constexpr std::uint32_t kCatalogDecisions = 528123233u;

TEST(GoldenParity, CatalogDetectConfirmRead)
{
    EXPECT_EQ(catalogDetectionFingerprint(DetectPolicy::ConfirmRead),
              kCatalogDecisions);
}

TEST(GoldenParity, CatalogDetectWeakOnly)
{
    EXPECT_EQ(catalogDetectionFingerprint(DetectPolicy::WeakOnly),
              kCatalogDecisions);
}

TEST(GoldenParity, CatalogDetectWeakStrong)
{
    EXPECT_EQ(catalogDetectionFingerprint(DetectPolicy::WeakStrong),
              kCatalogDecisions);
}

// Figure 7's refcount histogram and the recovery rebuild, pinned to
// the seed's numbers: both iterate metadata tables, so they prove the
// new containers' deterministic iteration produces the same
// accumulated counts the unordered containers did.
TEST(GoldenParity, RefcountHistogramAndRecovery)
{
    const std::vector<AppProfile> &catalog = appCatalog();
    DetailedExperiment detailed = runAppDetailed(
        catalog[0], goldenConfig(), dewriteScheme(DedupMode::Predicted),
        6000, appSeed(catalog[0]));
    auto &ctrl =
        dynamic_cast<DeWriteController &>(detailed.system->controller());
    auto &engine = const_cast<DedupEngine &>(ctrl.engine());

    std::uint64_t total = 0, r1 = 0, r2 = 0, r9 = 0, r65 = 0, sat = 0;
    engine.hashStore().forEach(
        [&](std::uint64_t, const HashEntry &entry) {
            ++total;
            if (entry.reference == 1)
                ++r1;
            else if (entry.reference <= 8)
                ++r2;
            else if (entry.reference <= 64)
                ++r9;
            else if (entry.reference < 255)
                ++r65;
            else
                ++sat;
        });

    EXPECT_EQ(engine.hashStore().size(), 1053u);
    EXPECT_EQ(engine.hashStore().distinctHashes(), 1053u);
    EXPECT_EQ(engine.hashStore().collidingEntries(), 0u);
    EXPECT_EQ(engine.hashStore().maxChainLength(), 1u);
    EXPECT_EQ(total, 1053u);
    EXPECT_EQ(r1, 1004u);
    EXPECT_EQ(r2, 48u);
    EXPECT_EQ(r9, 1u);
    EXPECT_EQ(r65, 0u);
    EXPECT_EQ(sat, 0u);

    RecoveryManager recovery(engine);
    recovery.simulateCrashDamage();
    const RecoveryReport report = recovery.rebuild();
    const AuditReport audit = recovery.audit();
    EXPECT_EQ(report.slotsScanned, 1053u);
    EXPECT_EQ(report.mappingsScanned, 370u);
    EXPECT_EQ(report.recordsRebuilt, 1053u);
    EXPECT_EQ(report.estimatedScanTime, 79200000u);
    EXPECT_TRUE(audit.consistent());
}

// Fingerprints must also be independent of which run produced them:
// re-running the same cell twice in one process (fresh System each
// time) yields the same fingerprint — i.e. no hidden global state.
TEST(GoldenParity, RerunStability)
{
    const std::vector<AppProfile> &catalog = appCatalog();
    const SystemConfig config = goldenConfig();
    const ExperimentResult a =
        runApp(catalog[0], config, dewriteScheme(DedupMode::Direct), 4000,
               appSeed(catalog[0]));
    const ExperimentResult b =
        runApp(catalog[0], config, dewriteScheme(DedupMode::Direct), 4000,
               appSeed(catalog[0]));
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(b));
    EXPECT_EQ(resultSignature(a), resultSignature(b));
}

} // namespace
} // namespace dewrite
