/**
 * @file
 * SecureBaselineController tests.
 */

#include "controller/secure_baseline.hh"

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
    k[0] = 0x10;
    return k;
}

TEST(SecureBaselineTest, WriteReadRoundTrip)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    Rng rng(101);
    const Line data = Line::random(rng);
    ctrl.write(5, data, 0);
    const CtrlReadResult read = ctrl.read(5, 1000000);
    EXPECT_TRUE(read.valid);
    EXPECT_EQ(read.data, data);
}

TEST(SecureBaselineTest, DataIsEncryptedAtRest)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    const Line data = Line::filled(0x5a);
    ctrl.write(5, data, 0);
    EXPECT_NE(device.peek(5), data);
}

TEST(SecureBaselineTest, WriteLatencyIncludesCounterAesAndCellWrite)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    const CtrlWriteResult write = ctrl.write(0, Line(), 0);
    // Counter-cache miss (NVM read) + AES + cell write at minimum.
    EXPECT_GE(write.latency, config().timing.nvmRead +
                                 config().timing.aesLine +
                                 config().timing.nvmWrite);
    EXPECT_FALSE(write.eliminated);
}

TEST(SecureBaselineTest, ReadHidesDecryptionBehindArrayAccess)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    ctrl.write(0, Line::filled(1), 0);
    // Counter now cached: the read's latency is max(array, OTP) + XOR,
    // far below array + AES serialized.
    const CtrlReadResult read = ctrl.read(0, 10000000);
    EXPECT_LT(read.latency,
              config().timing.nvmRead + config().timing.aesLine);
    EXPECT_GE(read.latency, config().timing.aesLine);
}

TEST(SecureBaselineTest, EveryWriteIsProgrammedFullLine)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    const Line data = Line::filled(0x11);
    ctrl.write(1, data, 0);
    ctrl.write(2, data, 0); // Identical content: still written.
    EXPECT_EQ(ctrl.writesEliminated(), 0u);
    EXPECT_EQ(ctrl.dataBitsProgrammed(), 2 * kLineBits);
    EXPECT_TRUE(device.isWritten(1));
    EXPECT_TRUE(device.isWritten(2));
}

TEST(SecureBaselineTest, RewriteDecryptsWithLatestCounter)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    Rng rng(102);
    const Line first = Line::random(rng);
    const Line second = Line::random(rng);
    ctrl.write(9, first, 0);
    ctrl.write(9, second, 0);
    EXPECT_EQ(ctrl.read(9, 0).data, second);
}

TEST(SecureBaselineTest, ShredderEliminatesZeroWrites)
{
    NvmDevice device(config());
    SecureBaselineController::Options options;
    options.shredZeroLines = true;
    SecureBaselineController ctrl(config(), device, key(), options);

    const CtrlWriteResult write = ctrl.write(3, Line(), 0);
    EXPECT_TRUE(write.eliminated);
    EXPECT_FALSE(device.isWritten(3));
    const CtrlReadResult read = ctrl.read(3, 0);
    EXPECT_TRUE(read.valid);
    EXPECT_TRUE(read.data.isZero());
    // Shredded reads skip the array entirely.
    EXPECT_LT(read.latency, config().timing.nvmRead);
}

TEST(SecureBaselineTest, ShredderClearsOnRealData)
{
    NvmDevice device(config());
    SecureBaselineController::Options options;
    options.shredZeroLines = true;
    SecureBaselineController ctrl(config(), device, key(), options);
    Rng rng(103);
    const Line data = Line::random(rng);
    ctrl.write(3, Line(), 0);
    ctrl.write(3, data, 0);
    EXPECT_EQ(ctrl.read(3, 0).data, data);
}

TEST(SecureBaselineTest, DcwReducesProgrammedBits)
{
    NvmDevice device(config());
    SecureBaselineController::Options options;
    options.technique = BitTechnique::Dcw;
    SecureBaselineController ctrl(config(), device, key(), options);
    Rng rng(104);
    ctrl.write(1, Line::random(rng), 0);
    ctrl.write(1, Line::random(rng), 0);
    // Two writes at ~50% flips each stay well under two full lines.
    EXPECT_LT(ctrl.dataBitsProgrammed(), 2 * kLineBits * 6 / 10);
    EXPECT_GT(ctrl.dataBitsProgrammed(), 2 * kLineBits * 4 / 10);
}

TEST(SecureBaselineTest, ReadOfUnwrittenIsInvalid)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    EXPECT_FALSE(ctrl.read(123, 0).valid);

    // Writing a neighbour allocates the counter page that holds line
    // 123; its zero counter must still read as never written.
    ctrl.write(122, Line::filled(7), 0);
    EXPECT_FALSE(ctrl.read(123, 0).valid);
    EXPECT_FALSE(ctrl.readTiming(123, 0).valid);
    EXPECT_TRUE(ctrl.read(122, 0).valid);
}

TEST(SecureBaselineTest, EnergyGrowsWithTraffic)
{
    NvmDevice device(config());
    SecureBaselineController ctrl(config(), device, key());
    const Energy before = ctrl.controllerEnergy();
    ctrl.write(0, Line::filled(2), 0);
    const Energy after_write = ctrl.controllerEnergy();
    EXPECT_GE(after_write - before, config().energy.aesLine());
    ctrl.read(0, 0);
    EXPECT_GT(ctrl.controllerEnergy(), after_write);
}

TEST(SecureBaselineTest, WriteBatchEqualsPerRequestWrites)
{
    // The serial MemController::writeBatch contract: a batch leaves
    // every result, metric and stored line exactly as one write() per
    // request does, rewrites of one address included.
    NvmDevice batch_device(config());
    SecureBaselineController batched(config(), batch_device, key());
    NvmDevice serial_device(config());
    SecureBaselineController serial(config(), serial_device, key());

    Rng rng(102);
    std::vector<Line> data(48);
    std::vector<CtrlWriteRequest> requests(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = Line::random(rng);
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

TEST(SecureBaselineTest, NameReflectsOptions)
{
    NvmDevice device(config());
    SecureBaselineController plain(config(), device, key());
    EXPECT_EQ(plain.name(), "secure-baseline");

    SecureBaselineController::Options options;
    options.technique = BitTechnique::Fnw;
    options.shredZeroLines = true;
    SecureBaselineController fancy(config(), device, key(), options);
    EXPECT_EQ(fancy.name(), "secure-baseline+FNW+shredder");
}

} // namespace
} // namespace dewrite
