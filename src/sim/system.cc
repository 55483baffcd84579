/**
 * @file
 * System implementation.
 */

#include "sim/system.hh"

#include "common/dense_line_store.hh"
#include "common/logging.hh"
#include "controller/plain_controller.hh"
#include "dedup/metadata_auditor.hh"
#include "trace/trace.hh"

namespace dewrite {

namespace {

std::unique_ptr<MemController>
makeController(const SystemConfig &config, NvmDevice &device,
               const SchemeOptions &scheme, const AesKey &key)
{
    switch (scheme.kind) {
      case SchemeKind::Plain:
        return std::make_unique<PlainController>(device);
      case SchemeKind::SecureBaseline:
        return std::make_unique<SecureBaselineController>(config, device,
                                                          key,
                                                          scheme.baseline);
      case SchemeKind::DeWrite:
        return std::make_unique<DeWriteController>(config, device, key,
                                                   scheme.dewrite);
    }
    panic("bad scheme kind");
}

} // namespace

AesKey
defaultAesKey()
{
    return AesKey{ 0xde, 0x77, 0x12, 0x17, 0xe5, 0xec, 0x12, 0x01,
                   0x8a, 0x5e, 0xcb, 0x1e, 0x00, 0x1c, 0xaf, 0xe5 };
}

System::System(const SystemConfig &config, const SchemeOptions &scheme,
               const AesKey &key)
    : config_(config), device_(config_), core_(config_.timing)
{
    validateConfig(config_);
    controller_ = makeController(config_, device_, scheme, key);

    registry_.addGauge(
        "system.sim_picoseconds",
        [this] { return static_cast<double>(now_); },
        "simulated time of the direct API");
    device_.registerMetrics(registry_.scope("device"));
    core_.registerMetrics(registry_.scope("core"));
    controller_->registerMetrics(registry_);
}

System::System(const SystemConfig &config, const SchemeOptions &scheme)
    : System(config, scheme, defaultAesKey())
{
}

// dewrite-analyze: root(determinism)
RunResult
System::run(TraceSource &trace, std::uint64_t max_events)
{
    return finishRun(core_.run(trace, *controller_, max_events));
}

// dewrite-analyze: root(determinism)
RunResult
System::run(const std::vector<TraceSource *> &traces,
            std::uint64_t max_events)
{
    return finishRun(core_.runMulti(traces, *controller_, max_events));
}

RunResult
System::finishRun(RunResult run) const
{
    run.totalEnergy = totalEnergy();
    run.nvmLineWrites = device_.numWrites();
    run.nvmLineReads = device_.numReads();
    run.bitsProgrammed = controller_->dataBitsProgrammed();
    // The epoch hook only fires on whole audit epochs; this closes the
    // partial tail so every run ends with a full consistency walk.
    const auto *dewrite =
        dynamic_cast<const DeWriteController *>(controller_.get());
    if (auditEnabled() && dewrite)
        dewrite->auditNow("run-end");
    // The run's streamed device lines must be visible before a runner
    // or service thread hands this System to another thread.
    fenceStreamedLines();
    return run;
}

CtrlWriteResult
System::write(LineAddr addr, const Line &data)
{
    const CtrlWriteResult result = controller_->write(addr, data, now_);
    now_ += result.latency;
    return result;
}

CtrlReadResult
System::read(LineAddr addr)
{
    const CtrlReadResult result = controller_->read(addr, now_);
    now_ += result.latency;
    return result;
}

Energy
System::totalEnergy() const
{
    return device_.totalEnergy() + controller_->controllerEnergy();
}

} // namespace dewrite
