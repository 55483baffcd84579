/**
 * @file
 * MemController request accounting shared by every scheme: the mean
 * write and read latencies that avgWriteLatency()/avgReadLatency() and
 * the registry's "controller.{write,read}_latency_ps" report, all read
 * from the one latency histogram per request kind.
 */

#include "controller/mem_controller.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "controller/dewrite_controller.hh"
#include "controller/plain_controller.hh"
#include "controller/secure_baseline.hh"

namespace dewrite {
namespace {

enum class Scheme
{
    Plain,
    SecureBaseline,
    DeWriteDirect,
    DeWriteParallel,
    DeWritePredicted,
};

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

std::unique_ptr<MemController>
makeController(Scheme scheme, const SystemConfig &config,
               NvmDevice &device)
{
    AesKey key{};
    key[2] = 0x30;
    DeWriteController::Options options;
    switch (scheme) {
      case Scheme::Plain:
        return std::make_unique<PlainController>(device);
      case Scheme::SecureBaseline:
        return std::make_unique<SecureBaselineController>(config, device,
                                                          key);
      case Scheme::DeWriteDirect:
        options.mode = DedupMode::Direct;
        break;
      case Scheme::DeWriteParallel:
        options.mode = DedupMode::Parallel;
        break;
      case Scheme::DeWritePredicted:
        options.mode = DedupMode::Predicted;
        break;
    }
    return std::make_unique<DeWriteController>(config, device, key,
                                               options);
}

double
registryValue(const MemController &ctrl, const std::string &path)
{
    obs::MetricRegistry registry;
    ctrl.registerMetrics(registry);
    const obs::MetricRegistry::Entry *entry = registry.find(path);
    EXPECT_NE(entry, nullptr) << path;
    return entry ? entry->read() : -1.0;
}

class LatencyMeanTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(LatencyMeanTest, EmptyMeansReadZero)
{
    const SystemConfig config = smallConfig();
    NvmDevice device(config);
    const std::unique_ptr<MemController> ctrl =
        makeController(GetParam(), config, device);
    EXPECT_EQ(ctrl->avgWriteLatency(), 0.0);
    EXPECT_EQ(ctrl->avgReadLatency(), 0.0);
    EXPECT_EQ(registryValue(*ctrl, "controller.write_latency_ps"), 0.0);
    EXPECT_EQ(registryValue(*ctrl, "controller.read_latency_ps"), 0.0);

    // Writes alone move only the write mean.
    Rng rng(26);
    const CtrlWriteResult write = ctrl->write(7, Line::random(rng), 0);
    EXPECT_GT(write.latency, 0u);
    EXPECT_EQ(ctrl->avgWriteLatency(), static_cast<double>(write.latency));
    EXPECT_EQ(ctrl->avgReadLatency(), 0.0);
    EXPECT_EQ(registryValue(*ctrl, "controller.read_latency_ps"), 0.0);
}

TEST_P(LatencyMeanTest, MeansMatchEveryRequestAndTheRegistry)
{
    const SystemConfig config = smallConfig();
    NvmDevice device(config);
    const std::unique_ptr<MemController> ctrl =
        makeController(GetParam(), config, device);

    // Half the writes repeat one of a few lines, so DeWrite takes both
    // its duplicate and its unique path; reads hit written and
    // never-written lines alike.
    Rng rng(2018);
    std::vector<Line> repeated;
    for (int i = 0; i < 4; ++i)
        repeated.push_back(Line::random(rng));
    std::uint64_t write_sum = 0, read_sum = 0;
    std::uint64_t write_max = 0, read_max = 0;
    std::uint64_t writes = 0, reads = 0;
    Time now = 0;
    for (int i = 0; i < 600; ++i) {
        const LineAddr addr = rng.nextBelow(512);
        if (i % 3 == 2) {
            const Time latency = ctrl->read(addr, now).latency;
            read_sum += latency;
            read_max = std::max(read_max, latency);
            ++reads;
        } else {
            const Line data = i % 2 ? repeated[rng.nextBelow(4)]
                                    : Line::random(rng);
            const Time latency = ctrl->write(addr, data, now).latency;
            write_sum += latency;
            write_max = std::max(write_max, latency);
            ++writes;
        }
        now += 40 * kNanoSecond;
    }

    // Whole-picosecond sums this small are exact in a double, so the
    // means must equal the exact quotient, not just approximate it.
    const double write_mean = static_cast<double>(write_sum) /
                              static_cast<double>(writes);
    const double read_mean = static_cast<double>(read_sum) /
                             static_cast<double>(reads);
    EXPECT_EQ(ctrl->avgWriteLatency(), write_mean);
    EXPECT_EQ(ctrl->avgReadLatency(), read_mean);
    EXPECT_EQ(registryValue(*ctrl, "controller.write_latency_ps"),
              write_mean);
    EXPECT_EQ(registryValue(*ctrl, "controller.read_latency_ps"),
              read_mean);
    // The quantile views read the same histograms.
    EXPECT_EQ(registryValue(*ctrl, "controller.write_latency.max_ps"),
              static_cast<double>(write_max));
    EXPECT_EQ(registryValue(*ctrl, "controller.read_latency.max_ps"),
              static_cast<double>(read_max));
}

std::string
schemeName(const ::testing::TestParamInfo<Scheme> &info)
{
    static const char *const names[] = {
        "plain", "secure_baseline", "dewrite_direct",
        "dewrite_parallel", "dewrite_predicted",
    };
    return names[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, LatencyMeanTest,
                         ::testing::Values(Scheme::Plain,
                                           Scheme::SecureBaseline,
                                           Scheme::DeWriteDirect,
                                           Scheme::DeWriteParallel,
                                           Scheme::DeWritePredicted),
                         schemeName);

} // namespace
} // namespace dewrite
