/**
 * @file
 * Logging tests: the report line format and interleaving safety of
 * concurrent reports.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace dewrite {
namespace {

TEST(LoggingDeathTest, WarnWritesOneWholeLine)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            warn("warnings %s", "appear");
            std::exit(23);
        },
        ::testing::ExitedWithCode(23), "^warn: warnings appear\n$");
}

TEST(LoggingTest, ConcurrentWarnsDoNotCrash)
{
    // Smoke for the thread-safe single-write path: interleaving is
    // prevented by construction (one fwrite per message); here we just
    // hammer it from several threads.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < 50; ++i)
                warn("thread %d message %d", t, i);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
}

} // namespace
} // namespace dewrite
