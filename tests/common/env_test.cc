/**
 * @file
 * Fail-fast environment helper tests: every DEWRITE_* variable goes
 * through envFlag/envUint, and every DEWRITE_* name must be one
 * knownKnobs() lists, so their rejection behavior is the
 * simulator-wide contract.
 */

#include "common/env.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "scoped_env.hh"

namespace dewrite {
namespace {

constexpr const char *kVar = "DEWRITE_ENV_TEST_VAR";

TEST(EnvRawTest, ForwardsTheEnvironment)
{
    ::unsetenv(kVar);
    EXPECT_EQ(envRaw(kVar), nullptr);
    ScopedEnv env(kVar, "abc");
    EXPECT_STREQ(envRaw(kVar), "abc");
}

TEST(EnvFlagTest, FallbackWhenUnset)
{
    ::unsetenv(kVar);
    EXPECT_FALSE(envFlag(kVar, false));
    EXPECT_TRUE(envFlag(kVar, true));
}

TEST(EnvFlagTest, ParsesZeroAndOne)
{
    {
        ScopedEnv env(kVar, "1");
        EXPECT_TRUE(envFlag(kVar, false));
    }
    {
        ScopedEnv env(kVar, "0");
        EXPECT_FALSE(envFlag(kVar, true));
    }
}

TEST(EnvFlagDeathTest, RejectsAnythingElse)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : { "yes", "true", "2", "", " 1" }) {
        ScopedEnv env(kVar, bad);
        EXPECT_EXIT(envFlag(kVar, false),
                    ::testing::ExitedWithCode(1), kVar)
            << "value: \"" << bad << '"';
    }
}

TEST(EnvUintTest, FallbackWhenUnset)
{
    ::unsetenv(kVar);
    // The fallback is returned verbatim, even outside [min, max] —
    // callers use that for "unset means a computed default".
    EXPECT_EQ(envUint(kVar, 0, 1, 10), 0u);
    EXPECT_EQ(envUint(kVar, 42, 1, 10), 42u);
}

TEST(EnvUintTest, ParsesInRangeValues)
{
    ScopedEnv env(kVar, "7");
    EXPECT_EQ(envUint(kVar, 0, 1, 10), 7u);
}

TEST(EnvUintTest, AcceptsTheBounds)
{
    {
        ScopedEnv env(kVar, "1");
        EXPECT_EQ(envUint(kVar, 0, 1, 10), 1u);
    }
    {
        ScopedEnv env(kVar, "10");
        EXPECT_EQ(envUint(kVar, 0, 1, 10), 10u);
    }
}

TEST(EnvUintDeathTest, RejectsMalformedAndOutOfRange)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad :
         { "seven", "7x", "", "-3", "0", "11",
           "18446744073709551616" }) {
        ScopedEnv env(kVar, bad);
        EXPECT_EXIT(envUint(kVar, 0, 1, 10),
                    ::testing::ExitedWithCode(1), kVar)
            << "value: \"" << bad << '"';
    }
}

TEST(KnownKnobsTest, SortedUniqueAndPrefixed)
{
    constexpr std::string_view kPrefix = "DEWRITE_";
    const std::vector<const char *> &knobs = knownKnobs();
    ASSERT_FALSE(knobs.empty());
    for (std::size_t i = 0; i < knobs.size(); ++i) {
        const std::string_view knob = knobs[i];
        EXPECT_TRUE(knob.starts_with(kPrefix)) << knob;
        EXPECT_GT(knob.size(), kPrefix.size()) << knob;
        if (i > 0) {
            EXPECT_LT(std::string_view(knobs[i - 1]), knob) << knob;
        }
    }
}

TEST(RejectUnknownKnobsTest, AcceptsEveryKnownKnob)
{
    // The scan checks names only: a known knob passes whatever its
    // value, which the knob's own parser validates.
    std::deque<ScopedEnv> env;
    for (const char *knob : knownKnobs())
        env.emplace_back(knob, "not-parsed-here");
    rejectUnknownKnobs();
}

TEST(RejectUnknownKnobsTest, IgnoresNamesWithoutThePrefix)
{
    std::deque<ScopedEnv> env;
    for (const char *name :
         { "DEWRITE", "DEWRITEX_EVENTS", "dewrite_events",
           "MY_DEWRITE_EVENTS" })
        env.emplace_back(name, "1");
    rejectUnknownKnobs();
}

TEST(RejectUnknownKnobsDeathTest, NamesTheUnknownVariable)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env(kVar, "1");
    EXPECT_EXIT(rejectUnknownKnobs(), ::testing::ExitedWithCode(1),
                std::string(kVar) + " is not a known");
}

TEST(RejectUnknownKnobsDeathTest, MatchesWholeNamesOnly)
{
    // A known knob's prefix, extension or the bare prefix is a
    // different name, so it is rejected like any typo.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *name :
         { "DEWRITE_", "DEWRITE_AUDI", "DEWRITE_EVENTS_X" }) {
        ScopedEnv env(name, "1");
        EXPECT_EXIT(rejectUnknownKnobs(), ::testing::ExitedWithCode(1),
                    std::string(name) + " is not a known")
            << name;
    }
}

TEST(RejectUnknownKnobsDeathTest, EmptyValueStillCounts)
{
    // Setting a retired knob to "" is still setting it.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_DETECT_EPOCH", "");
    EXPECT_EXIT(rejectUnknownKnobs(), ::testing::ExitedWithCode(1),
                "DEWRITE_DETECT_EPOCH is not a known");
}

} // namespace
} // namespace dewrite
