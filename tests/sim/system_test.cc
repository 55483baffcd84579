/**
 * @file
 * System facade tests.
 */

#include "sim/system.hh"

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "trace/app_catalog.hh"
#include "trace/trace_gen.hh"

namespace dewrite {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

TEST(SystemTest, DirectApiRoundTrip)
{
    System system(smallConfig(), dewriteScheme(DedupMode::Predicted));
    Rng rng(131);
    const Line data = Line::random(rng);
    system.write(1, data);
    EXPECT_EQ(system.read(1).data, data);
    EXPECT_GT(system.now(), 0u);
}

TEST(SystemTest, SchemeKindSelectsController)
{
    System plain(smallConfig(), plainScheme());
    EXPECT_EQ(plain.controller().name(), "plain-nvm");
    System baseline(smallConfig(), secureBaselineScheme());
    EXPECT_EQ(baseline.controller().name(), "secure-baseline");
    System dewrite(smallConfig(), dewriteScheme(DedupMode::Predicted));
    EXPECT_EQ(dewrite.controller().name(), "dewrite-predicted");
}

TEST(SystemTest, RunProducesConsistentAccounting)
{
    System system(smallConfig(), dewriteScheme(DedupMode::Predicted));
    SyntheticWorkload trace(appByName("gcc"), 1);
    const RunResult result = system.run(trace, 2000);

    EXPECT_EQ(result.events, 2000u);
    EXPECT_EQ(result.writes + result.reads, result.events);
    EXPECT_GT(result.instructions, result.events);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_LE(result.ipc, 1.0); // In-order core, 1 IPC peak.
    EXPECT_GT(result.avgWriteLatencyNs, 0.0);
    EXPECT_GT(result.avgReadLatencyNs, 0.0);
    EXPECT_GT(result.totalEnergy, 0u);
    EXPECT_GT(result.writesEliminated, 0u);
    EXPECT_LT(result.writesEliminated, result.writes);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    const RunResult a = [&] {
        System system(smallConfig(), dewriteScheme(DedupMode::Predicted));
        SyntheticWorkload trace(appByName("mcf"), 7);
        return system.run(trace, 1500);
    }();
    const RunResult b = [&] {
        System system(smallConfig(), dewriteScheme(DedupMode::Predicted));
        SyntheticWorkload trace(appByName("mcf"), 7);
        return system.run(trace, 1500);
    }();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.writesEliminated, b.writesEliminated);
    EXPECT_EQ(a.nvmLineWrites, b.nvmLineWrites);
}

TEST(SystemTest, ExperimentHelperFillsStats)
{
    const ExperimentResult result =
        runApp(appByName("bzip2"), smallConfig(),
               dewriteScheme(DedupMode::Predicted), 1500, 3);
    EXPECT_EQ(result.app, "bzip2");
    EXPECT_EQ(result.scheme, "dewrite-predicted");
    EXPECT_EQ(result.stats.get("writes"),
              static_cast<double>(result.run.writes));
}

TEST(SystemTest, ExperimentEventsEnvOverride)
{
    setenv("DEWRITE_EVENTS", "777", 1);
    EXPECT_EQ(experimentEvents(), 777u);
    unsetenv("DEWRITE_EVENTS");
    EXPECT_EQ(experimentEvents(), 120000u);
}

TEST(SystemTest, AppSeedIsStablePerApp)
{
    EXPECT_EQ(appSeed(appByName("lbm")), appSeed(appByName("lbm")));
    EXPECT_NE(appSeed(appByName("lbm")), appSeed(appByName("mcf")));
}

} // namespace
} // namespace dewrite
