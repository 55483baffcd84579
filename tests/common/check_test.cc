/**
 * @file
 * DEWRITE_CHECK / DEWRITE_DCHECK tests: passing checks are free and
 * side-effect-exact, failing checks abort with file, line, condition
 * text, and the formatted context. checkedIncrement, which guards the
 * 32-bit per-line counts, dies at UINT32_MAX.
 */

#include "common/check.hh"

#include <gtest/gtest.h>

#include <cstdint>

namespace dewrite {
namespace {

TEST(CheckTest, PassingCheckIsSilent)
{
    DEWRITE_CHECK(1 + 1 == 2, "arithmetic broke");
    DEWRITE_DCHECK(true, "never printed");
}

TEST(CheckTest, ConditionEvaluatedExactlyOnce)
{
    int calls = 0;
    DEWRITE_CHECK(++calls > 0, "calls=%d", calls);
    EXPECT_EQ(calls, 1);
}

TEST(CheckTest, MessageArgsNotEvaluatedOnSuccess)
{
    int calls = 0;
    auto expensive = [&calls] { return ++calls; };
    DEWRITE_CHECK(true, "value=%d", expensive());
    EXPECT_EQ(calls, 0);
}

TEST(CheckDeathTest, FailureReportsConditionAndContext)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const int slot = 17;
    EXPECT_DEATH(DEWRITE_CHECK(slot == 0, "slot %d is not home", slot),
                 "DEWRITE_CHECK failed.*check_test.*slot == 0.*"
                 "slot 17 is not home");
}

TEST(CheckDeathTest, CheckedIncrementDiesInsteadOfWrapping)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    std::uint32_t count = UINT32_MAX - 1;
    EXPECT_EQ(checkedIncrement(count, "wear count", 3), UINT32_MAX);
    EXPECT_EQ(count, UINT32_MAX);
    EXPECT_DEATH(checkedIncrement(count, "wear count", 3),
                 "wear count of line 3 would wrap");
}

#if !defined(NDEBUG) || defined(DEWRITE_FORCE_DCHECKS)
TEST(CheckDeathTest, DcheckActiveInDebugBuilds)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(DEWRITE_DCHECK(false, "debug invariant"),
                 "debug invariant");
}
#else
TEST(CheckTest, DcheckCompiledOutInOptimizedBuilds)
{
    // The condition must not even be evaluated.
    int calls = 0;
    DEWRITE_DCHECK(++calls != 0, "never");
    EXPECT_EQ(calls, 0);
}
#endif

} // namespace
} // namespace dewrite
