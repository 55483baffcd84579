/**
 * @file
 * End-to-end observability: the System's registry against the
 * authoritative run accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/app_catalog.hh"

namespace dewrite {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

TEST(SystemRegistryTest, CanonicalPathsTrackLiveCounters)
{
    const SystemConfig config = smallConfig();
    System system(config, dewriteScheme(DedupMode::Predicted));

    const obs::MetricRegistry &registry = system.registry();
    ASSERT_TRUE(registry.has("system.sim_picoseconds"));
    ASSERT_TRUE(registry.has("device.num_writes"));
    ASSERT_TRUE(registry.has("controller.write_requests"));
    ASSERT_TRUE(registry.has("controller.writes_eliminated"));
    ASSERT_TRUE(registry.has("controller.predictor.accuracy"));
    ASSERT_TRUE(registry.has("controller.dedup.duplicate_commits"));
    ASSERT_TRUE(registry.has("cache.metadata.mapping.hit_rate"));
    ASSERT_TRUE(registry.has("device.wear.total_writes"));

    const Line data = Line::filled(0x11);
    system.write(5, data);
    system.write(6, data); // Duplicate content.
    system.read(5);

    EXPECT_EQ(registry.find("controller.write_requests")->read(), 2.0);
    EXPECT_EQ(registry.find("controller.read_requests")->read(), 1.0);
    EXPECT_EQ(
        registry.find("controller.writes_eliminated")->read(),
        static_cast<double>(system.controller().writesEliminated()));
    EXPECT_EQ(registry.find("device.num_writes")->read(),
              static_cast<double>(system.device().numWrites()));
    EXPECT_EQ(registry.find("system.sim_picoseconds")->read(),
              static_cast<double>(system.now()));
}

TEST(SystemRegistryTest, LegacyViewMatchesFillStats)
{
    const SystemConfig config = smallConfig();
    System system(config, dewriteScheme(DedupMode::Predicted));
    const Line data = Line::filled(0x22);
    system.write(1, data);
    system.write(2, data);

    StatSet via_controller;
    system.controller().fillStats(via_controller);
    StatSet via_registry;
    system.registry().fillStatSet(via_registry);

    // fillStats is defined as the registry's legacy projection plus
    // nothing else; both maps must agree exactly.
    EXPECT_EQ(via_controller.all(), via_registry.all());
    EXPECT_TRUE(via_controller.has("writes"));
    EXPECT_TRUE(via_controller.has("prediction_accuracy"));
    EXPECT_TRUE(via_controller.has("writes_eliminated"));
}

TEST(SystemRegistryTest, DetectScopeMirrorsTheEngine)
{
    const SystemConfig config = smallConfig();
    SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    scheme.dewrite.detect = DetectPolicy::WeakStrong;
    System system(config, scheme);

    // The detection scope holds the policy's counters and the latency
    // sum; the policy is fixed for a run, so nothing reports a mode.
    const std::string prefix = "controller.dedup.detect.";
    std::set<std::string> names;
    for (const obs::MetricRegistry::Entry &entry :
         system.registry().entries()) {
        if (entry.path.starts_with(prefix))
            names.insert(entry.path.substr(prefix.size()));
    }
    ASSERT_EQ(names, (std::set<std::string>{
                         "confirm_reads", "confirm_reads_avoided",
                         "detects", "latency_ps_total", "strong_fp_caches",
                         "strong_fp_computes", "strong_fp_hits" }));

    // Weak-strong: the second write confirms by read and caches the
    // fingerprint, the later ones resolve by fingerprint.
    const Line data = Line::filled(0x55);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        system.write(addr, data);
    const DedupEngine &engine =
        dynamic_cast<const DeWriteController &>(system.controller())
            .engine();
    const std::pair<const char *, std::uint64_t> expected[] = {
        { "detects", 4 },
        { "confirm_reads", engine.confirmReads() },
        { "confirm_reads_avoided", engine.confirmReadsAvoided() },
        { "strong_fp_computes", engine.strongFpComputes() },
        { "strong_fp_hits", engine.strongFpHits() },
        { "strong_fp_caches", engine.strongFpCaches() },
    };
    for (const auto &[name, count] : expected) {
        EXPECT_EQ(system.registry().find(prefix + name)->read(),
                  static_cast<double>(count))
            << name;
    }
    EXPECT_EQ(engine.confirmReads(), 1u);
    EXPECT_EQ(engine.confirmReadsAvoided(), 2u);
    EXPECT_GT(system.registry().find(prefix + "latency_ps_total")->read(),
              0.0);
}

TEST(SystemRegistryTest, DetailedRunAgreesWithRunResult)
{
    const AppProfile &app = appCatalog().front();
    const DetailedExperiment cell =
        runAppDetailed(app, smallConfig(),
                       dewriteScheme(DedupMode::Predicted), 2000,
                       appSeed(app));
    const ExperimentResult &r = cell.result;
    const obs::MetricRegistry &registry = cell.system->registry();

    // The snapshot captured into the result is the live registry.
    EXPECT_EQ(r.metrics, registry.snapshot());

    ASSERT_GT(r.run.writesEliminated, 0u);
    const std::pair<const char *, std::uint64_t> expected[] = {
        { "controller.write_requests", r.run.writes },
        { "controller.read_requests", r.run.reads },
        { "controller.writes_eliminated", r.run.writesEliminated },
    };
    for (const auto &[path, count] : expected) {
        ASSERT_TRUE(registry.has(path)) << path;
        EXPECT_EQ(registry.find(path)->read(), static_cast<double>(count))
            << path;
    }

    // The result's legacy stats are the registry's legacy projection.
    StatSet from_registry;
    registry.fillStatSet(from_registry);
    EXPECT_EQ(r.stats.all(), from_registry.all());
}

} // namespace
} // namespace dewrite
