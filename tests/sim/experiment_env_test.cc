/**
 * @file
 * DEWRITE_EVENTS parsing tests.
 *
 * experimentEvents() sizes every experiment in the suite, so a typo'd
 * override must die loudly instead of silently truncating (strtoull
 * happily parses "12k" as 12) or wrapping (negative input).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/experiment.hh"

#include "scoped_env.hh"

namespace dewrite {
namespace {

TEST(ExperimentEventsTest, DefaultsWhenUnset)
{
    ::unsetenv("DEWRITE_EVENTS");
    EXPECT_EQ(experimentEvents(), 120000u);
}

TEST(ExperimentEventsTest, HonorsValidOverride)
{
    ScopedEnv env("DEWRITE_EVENTS", "5000");
    EXPECT_EQ(experimentEvents(), 5000u);
}

TEST(ExperimentEventsTest, AcceptsTheMaximum)
{
    const std::string max =
        std::to_string(static_cast<unsigned long long>(
            kMaxExperimentEvents));
    ScopedEnv env("DEWRITE_EVENTS", max.c_str());
    EXPECT_EQ(experimentEvents(), kMaxExperimentEvents);
}

TEST(ExperimentEventsDeathTest, RejectsMalformedValue)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_EVENTS", "lots");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

TEST(ExperimentEventsDeathTest, RejectsTrailingGarbage)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_EVENTS", "12k");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

TEST(ExperimentEventsDeathTest, RejectsEmptyValue)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_EVENTS", "");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

TEST(ExperimentEventsDeathTest, RejectsZero)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_EVENTS", "0");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

TEST(ExperimentEventsDeathTest, RejectsNegative)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_EVENTS", "-5");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

TEST(ExperimentEventsDeathTest, RejectsOverflow)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // 2^64 overflows strtoull (ERANGE).
    ScopedEnv env("DEWRITE_EVENTS", "18446744073709551616");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

TEST(ExperimentEventsDeathTest, RejectsMalformedAuditEpochEagerly)
{
    // The epoch value is only *used* when DEWRITE_AUDIT=1, but a
    // malformed value must die up front either way (fail-fast policy
    // for every DEWRITE_* variable).
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_AUDIT_EPOCH", "junk");
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_AUDIT_EPOCH");
}

TEST(ExperimentEventsDeathTest, RejectsUnknownKnobEagerly)
{
    // A retired knob or a typo'd name is never parsed, so without the
    // scan it would be ignored silently; it dies naming the variable.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *name : { "DEWRITE_DETECT", "DEWRITE_EVENT",
                              "DEWRITE_LOG", "DEWRITE_SHARDS",
                              "DEWRITE_TELEMETRY",
                              "DEWRITE_TELEMETRY_EVERY" }) {
        ScopedEnv env(name, "1");
        EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                    std::string(name) + " is not a known")
            << name;
    }
}

TEST(ExperimentEventsDeathTest, RejectsAboveTheMaximum)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string above =
        std::to_string(static_cast<unsigned long long>(
                           kMaxExperimentEvents) +
                       1);
    ScopedEnv env("DEWRITE_EVENTS", above.c_str());
    EXPECT_EXIT(experimentEvents(), ::testing::ExitedWithCode(1),
                "DEWRITE_EVENTS");
}

} // namespace
} // namespace dewrite
