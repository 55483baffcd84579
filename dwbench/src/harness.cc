/**
 * @file
 * Report, host probes, and the layer-timing wrappers of dwbench.
 */

#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>

#include "common/crc32.hh"
#include "common/types.hh"
#include "crypto/counter_mode.hh"
#include "obs/json_writer.hh"
#include "obs/stage_profile.hh"

namespace dwbench {

using namespace dewrite;

std::vector<SchemeSpec>
comparedSchemes()
{
    return { { "dewrite", dewriteScheme(DedupMode::Predicted) },
             { "baseline", secureBaselineScheme() } };
}

// ---------------------------------------------------------------- Report

void
Report::metric(const std::string &name, double value, const char *unit)
{
    metrics_[name] = { value, unit };
}

void
Report::check(bool ok, const std::string &what)
{
    checks(1, ok ? 0 : 1, what);
}

void
Report::checks(std::uint64_t attempted, std::uint64_t failed,
               const std::string &what)
{
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 16)
        failures_.push_back(what + ": " + std::to_string(failed) + " of " +
                            std::to_string(attempted) + " failed");
}

void
Report::fingerprint(const std::string &scheme, std::uint32_t value)
{
    fingerprints_[scheme].push_back(value);
}

void
Report::raw(const std::string &name, double value)
{
    raw_[name] = value;
}

void
Report::provenance(const std::string &name, const std::string &value)
{
    provenance_[name] = value;
}

void
Report::print(const Options &options) const
{
    std::string out;
    obs::JsonWriter json(&out, /*pretty=*/false);
    json.beginObject();
    json.field("workload", options.workload.c_str());
    json.field("mode", options.traced ? "traced" : "untraced");
    json.field("seed", options.seed);
    json.key("provenance");
    json.beginObject();
    for (const auto &[name, value] : provenance_)
        json.field(name, value.c_str());
    json.endObject();
    json.field("attempted", attempted_);
    json.field("failed", failed_);
    json.key("failures");
    json.beginArray();
    for (const std::string &failure : failures_)
        json.value(failure.c_str());
    json.endArray();
    json.key("fingerprints");
    json.beginObject();
    for (const auto &[scheme, values] : fingerprints_) {
        json.key(scheme);
        json.beginArray();
        for (std::uint32_t value : values) {
            char hex[16];
            std::snprintf(hex, sizeof hex, "%08x", value);
            json.value(hex);
        }
        json.endArray();
    }
    json.endObject();
    json.key("raw");
    json.beginObject();
    for (const auto &[name, value] : raw_)
        json.field(name, value);
    json.endObject();
    json.key("metrics");
    json.beginObject();
    for (const auto &[name, metric] : metrics_) {
        json.key(name);
        json.beginObject();
        json.field("value", metric.value);
        json.field("unit", metric.unit.c_str());
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ----------------------------------------------------------- Host probes

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
ticksPerNs()
{
    // Calibrated once against steady_clock over ~50 ms; the stage
    // profile gauges count the same TSC ticks.
    static const double rate = [] {
        const double t0 = wallSeconds();
        const std::uint64_t c0 = obs::stageClock();
        while (wallSeconds() - t0 < 0.05) {
        }
        const double t1 = wallSeconds();
        const std::uint64_t c1 = obs::stageClock();
        return static_cast<double>(c1 - c0) / ((t1 - t0) * 1e9);
    }();
    return rate;
}

namespace {

/** Aggregate "cpu" line of /proc/stat: {all jiffies, steal jiffies}. */
std::pair<std::uint64_t, std::uint64_t>
readCpuJiffies()
{
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    if (label != "cpu")
        return { 0, 0 };
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // — guest time is already inside user/nice, so stop at steal.
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(stat >> value))
            break;
        total += value;
        if (field == 7)
            steal = value;
    }
    return { total, steal };
}

} // namespace

void
StealMeter::start()
{
    std::tie(startTotal_, startSteal_) = readCpuJiffies();
}

void
StealMeter::stop()
{
    const auto [total, steal] = readCpuJiffies();
    total_ += total - startTotal_;
    steal_ += steal - startSteal_;
}

double
StealMeter::share() const
{
    return total_ ? static_cast<double>(steal_) /
                        static_cast<double>(total_)
                  : 0.0;
}

void
releaseFreedMemory()
{
    malloc_trim(0);
}

void
resetPeakRss()
{
    releaseFreedMemory();
    // "5" resets the VmHWM watermark (Linux >= 4.0); without it the
    // reading is the process-lifetime peak, which only overstates.
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (at - lo);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

// --------------------------------------------------------- Trace wrapper

CoreTrace::CoreTrace(TraceSource &inner, unsigned core, LineAddr base,
                     std::uint64_t lines, PullLog &log, bool timed)
    : inner_(inner), core_(static_cast<std::uint8_t>(core)), base_(base),
      written_(lines, 0), unwritten_(lines), log_(log), timed_(timed)
{
    ++log_.coresFilling;
}

bool
CoreTrace::next(MemEvent &event)
{
    bool ok;
    if (timed_) {
        const std::uint64_t start = obs::stageClock();
        ok = inner_.next(event);
        log_.traceTicks += obs::stageClock() - start;
    } else {
        ok = inner_.next(event);
    }
    log_.order.push_back(core_);
    if (log_.order.size() % PullLog::kMarkPulls == 0)
        log_.marks.push_back(wallSeconds());
    if (event.isWrite) {
        if (unwritten_ > 0) {
            const std::uint64_t index = event.addr - base_;
            if (index < written_.size() && !written_[index]) {
                written_[index] = 1;
                if (--unwritten_ == 0 && --log_.coresFilling == 0) {
                    log_.warmAt = wallSeconds();
                    log_.warmPulls = log_.order.size();
                }
            }
        }
        if (log_.sample.size() < log_.sampleCap)
            log_.sample.emplace_back(event.addr, event.data);
    }
    return ok;
}

// ------------------------------------------------------ Timed controller

CtrlWriteResult
TimedController::write(LineAddr addr, const Line &data, Time now)
{
    const std::uint64_t start = obs::stageClock();
    const CtrlWriteResult result = inner_.write(addr, data, now);
    writeTicks += obs::stageClock() - start;
    ++writesTimed;
    return result;
}

CtrlReadResult
TimedController::read(LineAddr addr, Time now)
{
    const std::uint64_t start = obs::stageClock();
    CtrlReadResult result = inner_.read(addr, now);
    readTicks += obs::stageClock() - start;
    ++readsTimed;
    return result;
}

CtrlReadResult
TimedController::readTiming(LineAddr addr, Time now)
{
    const std::uint64_t start = obs::stageClock();
    CtrlReadResult result = inner_.readTiming(addr, now);
    readTicks += obs::stageClock() - start;
    ++readsTimed;
    return result;
}

void
TimedController::writeBatch(const CtrlWriteRequest *requests,
                            CtrlWriteResult *results, std::size_t count)
{
    const std::uint64_t start = obs::stageClock();
    inner_.writeBatch(requests, results, count);
    writeTicks += obs::stageClock() - start;
    writesTimed += count;
}

// ---------------------------------------------------------- Layer report

std::map<std::string, double>
registryValues(const std::vector<obs::MetricSample> &snapshot)
{
    std::map<std::string, double> values;
    for (const obs::MetricSample &sample : snapshot)
        values[sample.path] = sample.value;
    return values;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
valueOf(const std::map<std::string, double> &registry,
        const std::string &path)
{
    const auto it = registry.find(path);
    return it == registry.end() ? 0.0 : it->second;
}

} // namespace

void
reportLayers(Report &report, const std::string &scheme,
             const std::map<std::string, double> &registry,
             const LayerTimes &times)
{
    const auto reg = [&](const std::string &path) {
        return valueOf(registry, path);
    };
    const double tpn = ticksPerNs();
    const double events = static_cast<double>(times.events);
    const double writes = reg("controller.write_requests");
    const std::string p = scheme + ".";
    const double self_ticks = static_cast<double>(times.wallTicks) -
                              static_cast<double>(times.traceTicks) -
                              static_cast<double>(times.writeTicks) -
                              static_cast<double>(times.readTicks);

    report.metric(p + "trace.ns_per_event",
                  ratio(times.traceTicks / tpn, events), "ns/event");
    report.metric(p + "cpu.self_ns_per_event", ratio(self_ticks / tpn, events),
                  "ns/event");
    report.metric(p + "cpu.batch_occupancy",
                  ratio(static_cast<double>(times.writesStaged),
                        static_cast<double>(times.flushes)),
                  "writes/flush");
    report.metric(p + "cpu.flush_queue_full_share",
                  ratio(static_cast<double>(times.flushesQueueFull),
                        static_cast<double>(times.flushes)),
                  "ratio");
    report.metric(p + "controller.write_ns",
                  ratio(times.writeTicks / tpn,
                        static_cast<double>(times.writesTimed)),
                  "ns/write");
    report.metric(p + "controller.read_ns",
                  ratio(times.readTicks / tpn,
                        static_cast<double>(times.readsTimed)),
                  "ns/read");

    const bool dewrite = scheme == "dewrite";
    report.metric(p + "crypto.pad_generations_per_write",
                  ratio(reg(dewrite ? "controller.dedup.pad_cache.misses"
                                    : "controller.pad_cache.misses"),
                        writes),
                  "pads/write");

    const double requests = reg("device.num_reads") + reg("device.num_writes");
    report.metric(p + "nvm.line_writes_per_write",
                  ratio(reg("device.num_writes"), writes), "lines/write");
    report.metric(p + "nvm.line_reads_per_event",
                  ratio(reg("device.num_reads"), events), "lines/event");
    report.metric(p + "nvm.queue_delay_ns_per_request",
                  ratio(reg("device.queue_delay_ps") / 1000.0, requests),
                  "ns/request");
    report.metric(p + "nvm.row_buffer_hit_share",
                  ratio(reg("device.row_buffer_hits"), requests), "ratio");

    if (!dewrite) {
        report.metric("cache.counter.hit_rate", reg("cache.counter.hit_rate"),
                      "ratio");
        return;
    }

    static const char *const kStages[] = { "digest", "probe", "pad",
                                           "confirm_read", "commit" };
    double covered = 0.0;
    for (const char *stage : kStages) {
        const double cycles =
            reg("controller.dedup.stage." + std::string(stage) + "_cycles");
        report.metric("dedup." + std::string(stage) + "_cycles_per_write",
                      ratio(cycles, writes), "cycles/write");
        // Pad work nests inside confirm_read and commit.
        if (std::strcmp(stage, "pad") != 0)
            covered += cycles;
    }
    report.metric("dedup.stage_coverage",
                  ratio(covered, static_cast<double>(times.writeTicks)),
                  "ratio");
    report.metric("dedup.duplicate_share",
                  ratio(reg("controller.dedup.duplicate_commits"), writes),
                  "ratio");
    report.metric("dedup.confirm_reads_per_write",
                  ratio(reg("controller.dedup.detect.confirm_reads"), writes),
                  "reads/write");
    const double pad_hits = reg("controller.dedup.pad_cache.hits");
    report.metric("dedup.pad_cache_hit_rate",
                  ratio(pad_hits,
                        pad_hits + reg("controller.dedup.pad_cache.misses")),
                  "ratio");
    report.metric("dedup.predictor_accuracy",
                  ratio(reg("controller.predictor.correct"),
                        reg("controller.predictor.predictions")),
                  "ratio");
    report.metric("dedup.missed_by_pna", reg("controller.dedup.missed_by_pna"),
                  "count");
    report.metric("dedup.reencryptions", reg("controller.dedup.reencryptions"),
                  "count");

    for (const char *cache : { "hash_store", "mapping", "inverted_hash",
                               "fsm" }) {
        report.metric("cache." + std::string(cache) + ".hit_rate",
                      reg("cache.metadata." + std::string(cache) +
                          ".hit_rate"),
                      "ratio");
    }
    report.metric("cache.metadata.fill_reads_per_write",
                  ratio(reg("cache.metadata.fill_reads"), writes),
                  "reads/write");
    report.metric("cache.metadata.writebacks_per_write",
                  ratio(reg("cache.metadata.writebacks"), writes),
                  "lines/write");
}

void
reportSim(Report &report, const RunResult &dw, const RunResult &base)
{
    report.metric("sim.write_reduction",
                  static_cast<double>(dw.writesEliminated) /
                      static_cast<double>(dw.writes),
                  "ratio");
    report.metric("sim.write_speedup",
                  base.avgWriteLatencyNs / dw.avgWriteLatencyNs, "x");
    report.metric("sim.read_speedup",
                  base.avgReadLatencyNs / dw.avgReadLatencyNs, "x");
    report.metric("sim.ipc_gain", dw.ipc / base.ipc, "x");
    report.metric("sim.energy_gain",
                  static_cast<double>(base.totalEnergy) /
                      static_cast<double>(dw.totalEnergy),
                  "x");
}

/** Where the kernel replay's results go, so the loops stay observable
 * to the optimizer. */
volatile std::uint64_t kernelSink = 0;

void
reportCryptoKernels(Report &report,
                    const std::vector<std::pair<LineAddr, Line>> &lines)
{
    const CounterModeEngine cme(defaultAesKey());
    std::uint64_t sink = 0;
    std::vector<double> pad_ns;
    std::vector<double> crc_ns;
    for (int pass = 0; pass < 5; ++pass) {
        std::uint64_t start = obs::stageClock();
        std::uint64_t counter = 0;
        for (const auto &[addr, line] : lines)
            sink ^= cme.encryptLine(line, addr, ++counter).word64(0);
        pad_ns.push_back(static_cast<double>(obs::stageClock() - start));
        start = obs::stageClock();
        for (const auto &entry : lines)
            sink += crc32(entry.second);
        crc_ns.push_back(static_cast<double>(obs::stageClock() - start));
    }
    const double per_line =
        1.0 / (ticksPerNs() * static_cast<double>(std::max<std::size_t>(
                                  lines.size(), 1)));
    report.metric("crypto.pad_ns_per_line", median(pad_ns) * per_line,
                  "ns/line");
    report.metric("crypto.crc32_ns_per_line", median(crc_ns) * per_line,
                  "ns/line");
    kernelSink = sink;
}

} // namespace dwbench
