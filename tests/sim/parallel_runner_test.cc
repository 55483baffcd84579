/**
 * @file
 * Determinism and correctness tests for the parallel experiment
 * runner and its thread pool.
 *
 * The load-bearing property: runMatrix must produce results
 * byte-identical to the equivalent serial runApp loop at *any* worker
 * count, because every published figure now flows through it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/parallel_runner.hh"
#include "sim/thread_pool.hh"
#include "trace/app_catalog.hh"

#include "scoped_env.hh"

namespace dewrite {
namespace {

// --- ThreadPool ------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{ 0 };
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SingleWorkerStillDrains)
{
    ThreadPool pool(1);
    std::atomic<int> ran{ 0 };
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> ran{ 0 };
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    pool.submit([&] { ran.fetch_add(1); });
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> ran{ 0 };
    for (int i = 0; i < 8; ++i)
        pool.submit([&, i] {
            if (i == 3)
                throw std::runtime_error("task failed");
            ran.fetch_add(1);
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool stays usable after a failed batch.
    pool.submit([&] { ran.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPoolTest, TasksSubmittedFromTasksRun)
{
    ThreadPool pool(2);
    std::atomic<int> ran{ 0 };
    pool.submit([&] {
        ran.fetch_add(1);
        pool.submit([&] { ran.fetch_add(1); });
    });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, DestructorRunsQueuedTasks)
{
    // No wait(): the destructor itself must finish every queued task
    // before it joins the workers.
    std::atomic<int> ran{ 0 };
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 64);
}

// --- parallelFor -----------------------------------------------------

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce)
{
    for (unsigned threads : { 1u, 2u, 8u }) {
        std::vector<std::atomic<int>> visits(257);
        parallelFor(
            visits.size(),
            [&](std::size_t i) { visits[i].fetch_add(1); }, threads);
        for (std::size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i].load(), 1)
                << "index " << i << " at " << threads << " threads";
    }
}

TEST(ParallelForTest, ZeroCountIsANoop)
{
    bool ran = false;
    parallelFor(0, [&](std::size_t) { ran = true; }, 4);
    EXPECT_FALSE(ran);
}

TEST(ParallelForTest, RethrowsBodyException)
{
    EXPECT_THROW(parallelFor(
                     8,
                     [&](std::size_t i) {
                         if (i == 5)
                             throw std::runtime_error("body failed");
                     },
                     4),
                 std::runtime_error);
}

// --- runMatrix determinism -------------------------------------------

void
expectIdentical(const ExperimentResult &serial,
                const ExperimentResult &parallel, unsigned threads)
{
    SCOPED_TRACE(serial.app + "/" + serial.scheme + " at " +
                 std::to_string(threads) + " threads");
    EXPECT_EQ(serial.app, parallel.app);
    EXPECT_EQ(serial.scheme, parallel.scheme);

    const RunResult &a = serial.run;
    const RunResult &b = parallel.run;
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writesEliminated, b.writesEliminated);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.avgWriteLatencyNs, b.avgWriteLatencyNs);
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.nvmLineWrites, b.nvmLineWrites);
    EXPECT_EQ(a.nvmLineReads, b.nvmLineReads);
    EXPECT_EQ(a.bitsProgrammed, b.bitsProgrammed);

    // Every controller detail counter, not just the headline numbers.
    EXPECT_EQ(serial.stats.all(), parallel.stats.all());

    // And the full registry snapshot: every metric path, kind, and
    // value must be reproducible regardless of worker count.
    EXPECT_EQ(serial.metrics, parallel.metrics);
}

TEST(RunMatrixTest, MatchesSerialLoopAtEveryThreadCount)
{
    SystemConfig config;
    config.memory.numLines = 1 << 18;
    constexpr std::uint64_t kEvents = 4000;

    const std::vector<AppProfile> &catalog = appCatalog();
    const std::vector<AppProfile> apps(catalog.begin(),
                                       catalog.begin() + 4);
    const std::vector<SchemeOptions> schemes = {
        secureBaselineScheme(), dewriteScheme(DedupMode::Predicted)
    };

    // The reference: the serial loop runMatrix replaces.
    std::vector<ExperimentResult> serial;
    for (const AppProfile &app : apps)
        for (const SchemeOptions &scheme : schemes)
            serial.push_back(
                runApp(app, config, scheme, kEvents, appSeed(app)));

    for (unsigned threads : { 1u, 2u, 8u }) {
        const std::vector<ExperimentResult> cells =
            runMatrix(apps, schemes, config, kEvents, threads);
        ASSERT_EQ(cells.size(), serial.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            expectIdentical(serial[i], cells[i], threads);
    }
}

TEST(RunMatrixTest, RepeatedRunsAreIdentical)
{
    SystemConfig config;
    config.memory.numLines = 1 << 18;
    const std::vector<AppProfile> &catalog = appCatalog();
    const std::vector<AppProfile> apps(catalog.begin(),
                                       catalog.begin() + 2);
    const std::vector<SchemeOptions> schemes = {
        dewriteScheme(DedupMode::Predicted)
    };

    const auto first = runMatrix(apps, schemes, config, 3000, 8);
    const auto second = runMatrix(apps, schemes, config, 3000, 8);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i], 8);
}

// --- DEWRITE_THREADS parsing -----------------------------------------

TEST(RunnerThreadsTest, DefaultsToAtLeastOne)
{
    ::unsetenv("DEWRITE_THREADS");
    EXPECT_GE(runnerThreads(), 1u);
}

TEST(RunnerThreadsTest, HonorsValidOverride)
{
    ScopedEnv env("DEWRITE_THREADS", "3");
    EXPECT_EQ(runnerThreads(), 3u);
}

TEST(RunnerThreadsDeathTest, RejectsMalformedValue)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_THREADS", "four");
    EXPECT_EXIT(runnerThreads(), ::testing::ExitedWithCode(1),
                "DEWRITE_THREADS");
}

TEST(RunnerThreadsDeathTest, RejectsZero)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_THREADS", "0");
    EXPECT_EXIT(runnerThreads(), ::testing::ExitedWithCode(1),
                "DEWRITE_THREADS");
}

TEST(RunnerThreadsDeathTest, RejectsTrailingGarbage)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_THREADS", "4x");
    EXPECT_EXIT(runnerThreads(), ::testing::ExitedWithCode(1),
                "DEWRITE_THREADS");
}

TEST(RunnerThreadsDeathTest, RejectsAbsurdCount)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_THREADS", "1000000");
    EXPECT_EXIT(runnerThreads(), ::testing::ExitedWithCode(1),
                "DEWRITE_THREADS");
}

} // namespace
} // namespace dewrite
