/**
 * @file
 * Timing/energy configuration tests — these pin the paper's constants.
 */

#include "common/timing.hh"

#include <gtest/gtest.h>

#include "common/hash_latency.hh"

namespace dewrite {
namespace {

TEST(TimingConfigTest, PaperDefaults)
{
    TimingConfig timing;
    EXPECT_EQ(timing.nvmRead, 75u * kNanoSecond);
    EXPECT_EQ(timing.nvmWrite, 300u * kNanoSecond);
    EXPECT_EQ(timing.aesLine, 96u * kNanoSecond);
    EXPECT_EQ(timing.cyclePeriod, 500u); // 2 GHz.
}

TEST(TimingConfigTest, AsymmetryHolds)
{
    TimingConfig timing;
    // The read/write asymmetry DeWrite exploits: a dedup confirmation
    // read must be much cheaper than the write it eliminates.
    EXPECT_GE(timing.nvmWrite, 3 * timing.nvmRead);
}

TEST(TimingConfigTest, CyclesHelper)
{
    TimingConfig timing;
    EXPECT_EQ(timing.cycles(4), 2u * kNanoSecond);
}

TEST(EnergyConfigTest, PaperAesEnergy)
{
    EnergyConfig energy;
    EXPECT_EQ(energy.aesBlock, 5900u); // 5.9 nJ per 128-bit block.
    EXPECT_EQ(energy.aesLine(), 5900u * 16);
}

TEST(EnergyConfigTest, WriteDominatesRead)
{
    EnergyConfig energy;
    EXPECT_GT(energy.nvmWriteLine(), 5 * energy.nvmReadLine());
}

TEST(HashLatencyTest, TableIaValues)
{
    EXPECT_EQ(hashSpec(HashFunction::Crc32).latency, 15u * kNanoSecond);
    EXPECT_EQ(hashSpec(HashFunction::Md5).latency, 312u * kNanoSecond);
    EXPECT_EQ(hashSpec(HashFunction::Sha1).latency, 321u * kNanoSecond);
    EXPECT_EQ(hashSpec(HashFunction::Crc32).digestBits, 32u);
    EXPECT_EQ(hashSpec(HashFunction::Md5).digestBits, 128u);
    EXPECT_EQ(hashSpec(HashFunction::Sha1).digestBits, 160u);
    EXPECT_FALSE(hashSpec(HashFunction::Crc32).cryptographic);
    EXPECT_TRUE(hashSpec(HashFunction::Sha1).cryptographic);
    EXPECT_EQ(allHashSpecs().size(), 3u);
}

TEST(ValidateConfigDeathTest, RejectsInvertedAsymmetry)
{
    SystemConfig config;
    config.timing.nvmRead = config.timing.nvmWrite + 1;
    EXPECT_EXIT(validateConfig(config), testing::ExitedWithCode(1),
                "asymmetry");
}

TEST(ValidateConfigDeathTest, RejectsZeroBanks)
{
    SystemConfig config;
    config.timing.numBanks = 0;
    EXPECT_EXIT(validateConfig(config), testing::ExitedWithCode(1),
                "bank");
}

TEST(ValidateConfigTest, DefaultsPass)
{
    SystemConfig config;
    validateConfig(config); // Must not exit.
    SUCCEED();
}

} // namespace
} // namespace dewrite
