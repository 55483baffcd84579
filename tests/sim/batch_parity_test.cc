/**
 * @file
 * Batch-vs-serial parity: the write-batch former is invisible.
 *
 * The batch former stages store-queue writes and hands each group to
 * MemController::writeBatch(), whose contract is strict equivalence
 * with one write() per member in order, so every simulated counter,
 * latency, energy number, and stat must be bit-identical to the
 * serial path. This suite replays the golden experiment matrix at
 * batch sizes spanning the knob's range (including 7, which exercises
 * flush-on-partial-batch, and 64, the cap) at one and eight worker
 * threads; every cell must still match the seed fingerprints, which
 * were produced with no batching at all.
 *
 * DEWRITE_BATCH itself is an envUint with the fail-fast contract:
 * malformed or out-of-range values die with the variable name.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "cpu/core_model.hh"

#include "golden_matrix.hh"

namespace dewrite {
namespace {

/** Scoped DEWRITE_BATCH override (unset restores at destruction). */
class ScopedBatch
{
  public:
    explicit ScopedBatch(const char *value)
    {
        ::setenv("DEWRITE_BATCH", value, 1);
    }
    ~ScopedBatch() { ::unsetenv("DEWRITE_BATCH"); }
};

class BatchParity : public testing::TestWithParam<const char *>
{
};

TEST_P(BatchParity, MatrixSingleThread)
{
    ScopedBatch batch(GetParam());
    checkMatrix(1);
}

TEST_P(BatchParity, MatrixEightThreads)
{
    ScopedBatch batch(GetParam());
    checkMatrix(8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchParity,
                         testing::Values("1", "7", "8", "16", "64"),
                         [](const auto &param_info) {
                             return std::string("batch") +
                                    param_info.param;
                         });

TEST(BatchKnob, DefaultsTo16)
{
    ::unsetenv("DEWRITE_BATCH");
    EXPECT_EQ(writeBatchSize(), 16u);
}

TEST(BatchKnob, HonorsValidOverride)
{
    ScopedBatch batch("32");
    EXPECT_EQ(writeBatchSize(), 32u);
}

TEST(BatchKnob, RejectsMalformed)
{
    ScopedBatch batch("abc");
    EXPECT_EXIT(writeBatchSize(), testing::ExitedWithCode(1),
                "DEWRITE_BATCH");
}

TEST(BatchKnob, RejectsZero)
{
    ScopedBatch batch("0");
    EXPECT_EXIT(writeBatchSize(), testing::ExitedWithCode(1),
                "DEWRITE_BATCH");
}

TEST(BatchKnob, RejectsAboveCap)
{
    ScopedBatch batch("65");
    EXPECT_EXIT(writeBatchSize(), testing::ExitedWithCode(1),
                "DEWRITE_BATCH");
}

} // namespace
} // namespace dewrite
