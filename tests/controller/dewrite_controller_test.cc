/**
 * @file
 * DeWriteController tests: the three scheduling modes of Figure 3.
 */

#include "controller/dewrite_controller.hh"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"

namespace dewrite {
namespace {

SystemConfig &
config()
{
    static SystemConfig instance = [] {
        SystemConfig c;
        c.memory.numLines = 1 << 16;
        return c;
    }();
    return instance;
}

AesKey
key()
{
    AesKey k{};
    k[1] = 0x20;
    return k;
}

DeWriteController::Options
modeOptions(DedupMode mode)
{
    DeWriteController::Options options;
    options.mode = mode;
    return options;
}

class DeWriteModeTest : public ::testing::TestWithParam<DedupMode>
{
};

TEST_P(DeWriteModeTest, RoundTripAndElimination)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(GetParam()));
    Rng rng(111);
    const Line data = Line::random(rng);

    const CtrlWriteResult first = ctrl.write(1, data, 0);
    EXPECT_FALSE(first.eliminated);
    const CtrlWriteResult second = ctrl.write(2, data, 0);
    EXPECT_TRUE(second.eliminated);

    EXPECT_EQ(ctrl.read(1, 0).data, data);
    EXPECT_EQ(ctrl.read(2, 0).data, data);
    EXPECT_EQ(ctrl.writesEliminated(), 1u);
}

TEST_P(DeWriteModeTest, ManyWritesStayFunctionallyCorrect)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(GetParam()));
    Rng rng(112 + static_cast<int>(GetParam()));

    // Mixed duplicate/unique stream with rewrites; verify against a
    // reference map.
    std::unordered_map<LineAddr, Line> reference;
    std::vector<Line> pool;
    for (int i = 0; i < 400; ++i) {
        const LineAddr addr = rng.nextBelow(64);
        Line data;
        if (!pool.empty() && rng.chance(0.5)) {
            data = pool[rng.nextBelow(pool.size())];
        } else {
            data = Line::random(rng);
            pool.push_back(data);
        }
        ctrl.write(addr, data, 0);
        reference[addr] = data;
    }
    for (const auto &[addr, expected] : reference) {
        const CtrlReadResult read = ctrl.read(addr, 0);
        EXPECT_TRUE(read.valid);
        EXPECT_EQ(read.data, expected) << "addr " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeWriteModeTest,
                         ::testing::Values(DedupMode::Direct,
                                           DedupMode::Parallel,
                                           DedupMode::Predicted),
                         [](const auto &param_info) {
                             return dedupModeName(param_info.param);
                         });

TEST(DeWriteControllerTest, ParallelModeWastesEncryptionOnDuplicates)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(DedupMode::Parallel));
    Rng rng(113);
    const Line data = Line::random(rng);
    ctrl.write(1, data, 0);
    ctrl.write(2, data, 0); // Duplicate: speculative AES wasted.
    EXPECT_EQ(ctrl.wastedEncryptions(), 1u);
    EXPECT_EQ(ctrl.encryptionsStarted(), 2u);
}

TEST(DeWriteControllerTest, DirectModeNeverWastesEncryption)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(DedupMode::Direct));
    Rng rng(114);
    const Line data = Line::random(rng);
    ctrl.write(1, data, 0);
    ctrl.write(2, data, 0);
    EXPECT_EQ(ctrl.wastedEncryptions(), 0u);
    EXPECT_EQ(ctrl.encryptionsStarted(), 1u);
}

TEST(DeWriteControllerTest, DirectModeSerializesDetectionAndEncryption)
{
    NvmDevice deviceDirect(config());
    DeWriteController direct(config(), deviceDirect, key(),
                             modeOptions(DedupMode::Direct));
    NvmDevice deviceParallel(config());
    DeWriteController parallel(config(), deviceParallel, key(),
                               modeOptions(DedupMode::Parallel));
    Rng rng(115);
    // Warm the metadata blocks with a first write so the measured
    // write's commit path is on-chip; otherwise cold metadata fills
    // dominate both modes equally and mask the AES serialization.
    const Line warmup = Line::random(rng);
    direct.write(1, warmup, 0);
    parallel.write(1, warmup, 0);

    const Line data = Line::random(rng);
    const Time direct_latency = direct.write(2, data, 1000000).latency;
    const Time parallel_latency =
        parallel.write(2, data, 1000000).latency;
    // A unique write pays detection + AES serially in direct mode but
    // overlapped in parallel mode.
    EXPECT_GT(direct_latency, parallel_latency);
}

TEST(DeWriteControllerTest, DuplicateWriteIsFasterThanUniqueWrite)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(DedupMode::Predicted));
    Rng rng(116);
    const Line data = Line::random(rng);
    const Time unique_latency = ctrl.write(1, data, 0).latency;
    const Time dup_latency = ctrl.write(2, data, 1000000000).latency;
    // Eliminating the 300 ns cell write leaves roughly a read-cost
    // detection — the asymmetry payoff (Table Ib).
    EXPECT_LT(dup_latency, unique_latency / 2);
}

TEST(DeWriteControllerTest, PredictorLearnsFromOutcomes)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(DedupMode::Predicted));
    Rng rng(117);
    const Line data = Line::random(rng);
    ctrl.write(1, data, 0);
    for (LineAddr addr = 2; addr < 30; ++addr)
        ctrl.write(addr, data, 0);
    // A long run of duplicates drives the window to all-ones.
    EXPECT_TRUE(ctrl.predictor().predictDuplicate());
    EXPECT_EQ(ctrl.predictor().predictions(), 29u);
}

TEST(DeWriteControllerTest, StatsExportCoversKeyCounters)
{
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(DedupMode::Predicted));
    Rng rng(118);
    const Line data = Line::random(rng);
    ctrl.write(1, data, 0);
    ctrl.write(2, data, 0);
    ctrl.read(1, 0);

    StatSet stats;
    ctrl.fillStats(stats);
    EXPECT_EQ(stats.get("writes"), 2.0);
    EXPECT_EQ(stats.get("reads"), 1.0);
    EXPECT_EQ(stats.get("writes_eliminated"), 1.0);
    EXPECT_EQ(stats.get("duplicate_commits"), 1.0);
    EXPECT_EQ(stats.get("unique_commits"), 1.0);
    EXPECT_TRUE(stats.has("prediction_accuracy"));
    EXPECT_TRUE(stats.has("hit_rate_hash_store"));
}

TEST(DeWriteControllerTest, NameReflectsModeAndTechnique)
{
    NvmDevice device(config());
    DeWriteController::Options options;
    options.mode = DedupMode::Parallel;
    options.technique = BitTechnique::Deuce;
    DeWriteController ctrl(config(), device, key(), options);
    EXPECT_EQ(ctrl.name(), "dewrite-parallel+DEUCE");
}

TEST(DeWriteControllerTest, NameCarriesANonDefaultDetectPolicy)
{
    NvmDevice device(config());
    EXPECT_EQ(DeWriteController(config(), device, key()).name(),
              "dewrite-predicted");
    DeWriteController::Options options;
    options.detect = DetectPolicy::WeakStrong;
    EXPECT_EQ(DeWriteController(config(), device, key(), options).name(),
              "dewrite-predicted+weak-strong");
    options.detect = DetectPolicy::WeakOnly;
    EXPECT_EQ(DeWriteController(config(), device, key(), options).name(),
              "dewrite-predicted+weak-only");
}

TEST(DeWriteControllerTest, DefaultsToConfirmReadDetection)
{
    // Other policies are set only in code; a default controller runs
    // the paper's scheme and confirms each weak match with a read.
    EXPECT_EQ(DeWriteController::Options().detect,
              DetectPolicy::ConfirmRead);
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key());
    Rng rng(120);
    const Line data = Line::random(rng);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        ctrl.write(addr, data, 0);
    EXPECT_EQ(ctrl.engine().duplicateCommits(), 3u);
    EXPECT_EQ(ctrl.engine().confirmReads(), 3u);
    EXPECT_EQ(ctrl.engine().confirmReadsAvoided(), 0u);
    EXPECT_EQ(ctrl.engine().strongFpCaches(), 0u);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        EXPECT_EQ(ctrl.read(addr, 0).data, data) << addr;
}

TEST(DeWriteControllerTest, BitTechniqueComposesWithDedup)
{
    NvmDevice device(config());
    DeWriteController::Options options;
    options.technique = BitTechnique::Dcw;
    DeWriteController ctrl(config(), device, key(), options);
    Rng rng(119);
    const Line a = Line::random(rng);
    ctrl.write(1, a, 0);              // Unique: ~50% of cells.
    ctrl.write(2, a, 0);              // Duplicate: zero cells.
    EXPECT_LT(ctrl.dataBitsProgrammed(), kLineBits * 6 / 10);
    EXPECT_GT(ctrl.dataBitsProgrammed(), kLineBits * 4 / 10);
    EXPECT_EQ(ctrl.read(2, 0).data, a);
}

TEST(DeWriteControllerTest, WriteBatchEqualsPerRequestWrites)
{
    // The core model's flushes reach the scheme through the serial
    // MemController::writeBatch: a batch must leave every result,
    // metric and stored line exactly as one write() per request does.
    NvmDevice batch_device(config());
    DeWriteController batched(config(), batch_device, key(),
                              modeOptions(DedupMode::Predicted));
    NvmDevice serial_device(config());
    DeWriteController serial(config(), serial_device, key(),
                             modeOptions(DedupMode::Predicted));

    Rng rng(121);
    std::vector<Line> pool;
    std::vector<Line> data(48);
    std::vector<CtrlWriteRequest> requests(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (!pool.empty() && rng.chance(0.5)) {
            data[i] = pool[rng.nextBelow(pool.size())];
        } else {
            data[i] = Line::random(rng);
            pool.push_back(data[i]);
        }
        requests[i] = { rng.nextBelow(16), &data[i],
                        static_cast<Time>(i) * 1000 };
    }

    std::vector<CtrlWriteResult> batch_results(requests.size());
    batched.writeBatch(requests.data(), batch_results.data(),
                       requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const CtrlWriteResult expected = serial.write(
            requests[i].addr, *requests[i].data, requests[i].now);
        EXPECT_EQ(batch_results[i].latency, expected.latency) << i;
        EXPECT_EQ(batch_results[i].eliminated, expected.eliminated) << i;
    }
    EXPECT_GT(batched.writesEliminated(), 0u);

    StatSet batch_stats;
    StatSet serial_stats;
    batched.fillStats(batch_stats);
    serial.fillStats(serial_stats);
    EXPECT_EQ(batch_stats.all(), serial_stats.all());
    EXPECT_EQ(batched.controllerEnergy(), serial.controllerEnergy());
    EXPECT_EQ(batch_device.numWrites(), serial_device.numWrites());
    EXPECT_EQ(batch_device.totalEnergy(), serial_device.totalEnergy());
    for (LineAddr addr = 0; addr < 16; ++addr) {
        EXPECT_EQ(batch_device.peek(addr), serial_device.peek(addr));
        EXPECT_EQ(batched.read(addr, 0).data, serial.read(addr, 0).data);
    }
}

TEST(DeWriteControllerTest, WorstCaseUniqueStreamStaysClose)
{
    // All-unique writes (Figure 18): DeWrite's overhead vs the time a
    // bare encrypted write would take must stay small.
    NvmDevice device(config());
    DeWriteController ctrl(config(), device, key(),
                           modeOptions(DedupMode::Predicted));
    Rng rng(120);
    Time total = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        Line data;
        data.setWord64(0, rng.next64());
        data.setWord64(1, i + 1);
        total += ctrl.write(i, data, i * 1000000).latency;
    }
    const double avg = static_cast<double>(total) / n;
    const double floor = static_cast<double>(config().timing.aesLine +
                                             config().timing.nvmWrite);
    EXPECT_LT(avg, floor * 1.25);
}

} // namespace
} // namespace dewrite
