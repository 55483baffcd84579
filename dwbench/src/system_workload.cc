/**
 * @file
 * The single-System workloads (dup-heavy: cactusADM, unique-heavy:
 * vips): one System per scheme on the default 4-core SystemConfig, one
 * host thread.
 *
 * Untraced mode times System::run and splits it at the warm-up point
 * the trace wrappers observe (every core's working set written), so
 * events/sec is the steady-state rate after the fill phase. Traced
 * mode assembles the same device and controller under a CoreModel the
 * benchmark owns, with a TimedController between them, and attributes
 * the wall time to trace generation, the core model and the
 * controller. Both modes read every written line back afterwards.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "controller/dewrite_controller.hh"
#include "controller/secure_baseline.hh"
#include "harness.hh"
#include "nvm/nvm_device.hh"
#include "obs/stage_profile.hh"
#include "sim/system.hh"
#include "trace/app_catalog.hh"

namespace dwbench {

using namespace dewrite;

namespace {

/** Events per scheme run: the fill phase (~0.6M events on dup-heavy),
 * then the steady state, so most of a repetition is steady state. */
constexpr std::uint64_t kEvents = 3'000'000;
/** Set-up-only repetitions added to the per-repetition set-ups: a
 * few milliseconds each, dominated by page faults, so many samples. */
constexpr int kSetupSamples = 41;
/**
 * The host alternates between a slow state, whose speed repeats from
 * run to run, and faster states whose speed and share of a run vary
 * (README, Steadiness). The host-time figures follow the slow state:
 * a low quantile of interval rates, a high quantile of durations.
 */
constexpr double kSlowRateQuantile = 0.1;
constexpr double kSlowTimeQuantile = 0.9;

struct Workload
{
    AppProfile profile;
    unsigned cores = 0;
    std::uint64_t events = 0;
    std::uint64_t seedBase = 0;

    LineAddr
    base(unsigned core) const
    {
        // Disjoint per-core ranges, laid out as runApp lays them out.
        return static_cast<LineAddr>(core) * profile.workingSetLines * 2;
    }

    SystemConfig
    config() const
    {
        SystemConfig config;
        config.memory.workingSetHintLines = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(cores) * profile.workingSetLines,
            std::max<std::uint64_t>(events, 1024));
        return config;
    }
};

Workload
workloadFor(const Options &options)
{
    Workload w;
    w.profile = appByName(options.workload == "unique-heavy" ? "vips"
                                                             : "cactusADM");
    w.cores = SystemConfig{}.numCores;
    w.events = kEvents;
    if (options.tiny) {
        w.profile.workingSetLines = 1024;
        w.events = 40'000;
    }
    w.seedBase = appSeed(w.profile) + options.seed * 1000;
    return w;
}

/** One run's trace sources: seeded generators behind CoreTraces. */
struct Inputs
{
    PullLog log;
    std::vector<std::unique_ptr<SyntheticWorkload>> generators;
    std::vector<std::unique_ptr<CoreTrace>> wrappers;
    std::vector<TraceSource *> traces;
};

std::vector<std::unique_ptr<SyntheticWorkload>>
makeGenerators(const Workload &w)
{
    auto phase = std::make_shared<SharedPhase>();
    std::vector<std::unique_ptr<SyntheticWorkload>> generators;
    for (unsigned core = 0; core < w.cores; ++core) {
        generators.push_back(std::make_unique<SyntheticWorkload>(
            w.profile, w.seedBase + core, w.base(core), phase));
    }
    return generators;
}

std::unique_ptr<Inputs>
makeInputs(const Workload &w, bool timed)
{
    auto inputs = std::make_unique<Inputs>();
    inputs->log.order.reserve(w.events + w.cores);
    if (timed) {
        inputs->log.sampleCap = 1 << 16;
        inputs->log.sample.reserve(inputs->log.sampleCap);
    }
    inputs->generators = makeGenerators(w);
    for (unsigned core = 0; core < w.cores; ++core) {
        inputs->wrappers.push_back(std::make_unique<CoreTrace>(
            *inputs->generators[core], core, w.base(core),
            w.profile.workingSetLines, inputs->log, timed));
        inputs->traces.push_back(inputs->wrappers.back().get());
    }
    return inputs;
}

/** Last value the inputs wrote to each line, per core. */
struct Expected
{
    std::vector<std::vector<Line>> lines;
    std::vector<std::vector<std::uint8_t>> written;
};

/**
 * Regenerates the run's inputs from the same seeds in the recorded
 * pull order. Each core's last pull was still pending when the run
 * stopped, so it never reached the controller and is not applied.
 */
Expected
regenerate(const Workload &w, const PullLog &log)
{
    auto generators = makeGenerators(w);
    std::vector<std::size_t> last(w.cores, 0);
    for (std::size_t i = 0; i < log.order.size(); ++i)
        last[log.order[i]] = i;

    Expected expected;
    expected.lines.assign(w.cores,
                          std::vector<Line>(w.profile.workingSetLines));
    expected.written.assign(
        w.cores, std::vector<std::uint8_t>(w.profile.workingSetLines, 0));
    MemEvent event;
    for (std::size_t i = 0; i < log.order.size(); ++i) {
        const unsigned core = log.order[i];
        generators[core]->next(event);
        if (i == last[core] || !event.isWrite)
            continue;
        const std::uint64_t index = event.addr - w.base(core);
        expected.lines[core][index] = event.data;
        expected.written[core][index] = 1;
    }
    return expected;
}

/**
 * Reads every written line back through @p read and compares it with
 * the last value written. With a seeded line fault, @p write first
 * overwrites one line with different content, which must be caught.
 */
template <typename ReadFn, typename WriteFn>
void
verifyReadBack(Report &report, const Options &options, const Workload &w,
               const Expected &expected, const char *scheme, ReadFn read,
               WriteFn write)
{
    if (options.fault == Options::Fault::Line) {
        for (std::size_t index = 0; index < expected.written[0].size();
             ++index) {
            if (expected.written[0][index]) {
                Line wrong = expected.lines[0][index];
                wrong.setWord64(7, ~wrong.word64(7));
                write(w.base(0) + index, wrong);
                break;
            }
        }
    }
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (unsigned core = 0; core < w.cores; ++core) {
        for (std::size_t index = 0; index < expected.written[core].size();
             ++index) {
            if (!expected.written[core][index])
                continue;
            ++attempted;
            const CtrlReadResult result = read(w.base(core) + index);
            if (!result.valid || !(result.data == expected.lines[core][index]))
                ++failed;
        }
    }
    report.checks(attempted, failed, std::string(scheme) + " read-back");
}

ExperimentResult
makeCell(const Workload &w, const MemController &controller,
         const RunResult &run, std::vector<obs::MetricSample> metrics)
{
    ExperimentResult cell;
    cell.app = w.profile.name;
    cell.scheme = controller.name();
    cell.run = run;
    controller.fillStats(cell.stats);
    cell.metrics = std::move(metrics);
    return cell;
}

/** One untraced scheme run. */
struct SchemeRun
{
    double runS = 0.0;
    double steadyEps = 0.0;
    /** Durations of the fill's marked intervals, the last one ending at
     * the warm-up point. */
    std::vector<double> fillSeconds;
    /** Rates of the marked intervals that start after the warm-up. */
    std::vector<double> intervalEps;
    double peakMiB = 0.0;
    ExperimentResult cell;
    std::uint32_t fingerprint = 0;
};

SchemeRun
runUntraced(const Workload &w, const SchemeSpec &scheme,
            const Options &options, Report &report, StealMeter &steal,
            bool read_back)
{
    SchemeRun out;
    resetPeakRss();
    auto inputs = makeInputs(w, /*timed=*/false);
    auto system = std::make_unique<System>(w.config(), scheme.options);
    const double t1 = wallSeconds();
    steal.start();
    const RunResult run = system->run(inputs->traces, w.events);
    const double t2 = wallSeconds();
    steal.stop();
    out.peakMiB = peakRssMiB();
    out.runS = t2 - t1;

    const PullLog &log = inputs->log;
    report.check(log.warmAt >= 0.0 && run.events == w.events,
                 std::string(scheme.name) + " warm-up within the run");
    if (log.warmAt >= 0.0) {
        const std::uint64_t warm_events = log.warmPulls - w.cores;
        out.steadyEps = static_cast<double>(w.events - warm_events) /
                        (t2 - log.warmAt);
        // Mark i is taken at pull (i + 1) * kMarkPulls. The fill's
        // intervals run from the start to each mark up to the warm-up
        // point, then on to that point; the steady-state intervals are
        // the whole ones that start at or after it.
        double from = t1;
        for (std::size_t i = 0; i < log.marks.size() &&
                                (i + 1) * PullLog::kMarkPulls <= log.warmPulls;
             ++i) {
            out.fillSeconds.push_back(log.marks[i] - from);
            from = log.marks[i];
        }
        out.fillSeconds.push_back(log.warmAt - from);
        for (std::size_t i = 1; i < log.marks.size(); ++i) {
            if (i * PullLog::kMarkPulls >= log.warmPulls) {
                out.intervalEps.push_back(
                    static_cast<double>(PullLog::kMarkPulls) /
                    (log.marks[i] - log.marks[i - 1]));
            }
        }
    } else {
        out.steadyEps = static_cast<double>(run.events) / out.runS;
    }
    // Self-test runs are shorter than one interval.
    if (out.intervalEps.empty())
        out.intervalEps.push_back(out.steadyEps);

    // Snapshot first: the read-back below changes controller state.
    out.cell = makeCell(w, system->controller(), run,
                        system->registry().snapshot());
    out.fingerprint = resultFingerprint(out.cell);

    if (!read_back)
        return out;
    verifyReadBack(
        report, options, w, regenerate(w, log), scheme.name,
        [&](LineAddr addr) { return system->read(addr); },
        [&](LineAddr addr, const Line &data) { system->write(addr, data); });
    return out;
}

double
setupOnce(const Workload &w, const SchemeSpec &scheme)
{
    // From a trimmed heap, so every sample faults its memory in.
    releaseFreedMemory();
    const double t0 = wallSeconds();
    auto inputs = makeInputs(w, /*timed=*/false);
    System system(w.config(), scheme.options);
    return wallSeconds() - t0;
}

void
runUntracedWorkload(const Options &options, const Workload &w,
                    Report &report)
{
    const std::vector<SchemeSpec> schemes = comparedSchemes();
    StealMeter steal;
    std::vector<double> eps[2], run_s[2], gaps, setups, peaks;
    // fills[s][k]: the k-th fill interval of scheme s, per repetition.
    std::vector<std::vector<double>> fills[2];
    std::vector<SchemeRun> first;

    // Set-up is sampled first, while the process's allocation history
    // is the same on every run.
    for (int i = 0; i < kSetupSamples; ++i)
        setups.push_back(setupOnce(w, schemes[0]) + setupOnce(w, schemes[1]));

    const double start = wallSeconds();
    // One repetition always runs; another starts only if it should end
    // within the budget, judged by the longest repetition so far.
    double longest = 0.0;
    for (int rep = 0;
         rep == 0 || wallSeconds() - start + longest <= options.seconds;
         ++rep) {
        const double rep_start = wallSeconds();
        SchemeRun runs[2];
        // Alternate which scheme runs first, so a drifting host
        // penalizes both alike.
        for (int i = 0; i < 2; ++i) {
            const int s = rep % 2 ? 1 - i : i;
            // Later repetitions must repeat the first's result
            // fingerprint exactly, which makes a second read-back moot.
            runs[s] = runUntraced(w, schemes[s], options, report, steal,
                                  /*read_back=*/rep == 0);
        }
        for (int s = 0; s < 2; ++s) {
            if (rep == 0)
                first.push_back(runs[s]);
            else
                report.check(runs[s].fingerprint == first[s].fingerprint,
                             std::string(schemes[s].name) +
                                 " result repeats exactly");
            eps[s].insert(eps[s].end(), runs[s].intervalEps.begin(),
                          runs[s].intervalEps.end());
            const std::vector<double> &fill = runs[s].fillSeconds;
            if (fills[s].size() < fill.size())
                fills[s].resize(fill.size());
            for (std::size_t k = 0; k < fill.size(); ++k)
                fills[s][k].push_back(fill[k]);
            run_s[s].push_back(runs[s].runS);
        }
        gaps.push_back(runs[0].steadyEps / runs[1].steadyEps);
        peaks.push_back(std::max(runs[0].peakMiB, runs[1].peakMiB));
        longest = std::max(longest, wallSeconds() - rep_start);
    }

    double warmup = 0.0;
    for (int s = 0; s < 2; ++s) {
        for (const std::vector<double> &interval : fills[s])
            warmup += quantile(interval, kSlowTimeQuantile);
    }
    report.metric("dewrite_events_per_sec",
                  quantile(eps[0], kSlowRateQuantile), "events/s");
    report.metric("baseline_events_per_sec",
                  quantile(eps[1], kSlowRateQuantile), "events/s");
    report.metric("setup_s", median(setups), "s");
    report.metric("warmup_s", warmup, "s");
    report.metric("peak_rss_mb", median(peaks), "MiB");
    reportSim(report, first[0].cell.run, first[1].cell.run);
    for (int s = 0; s < 2; ++s) {
        report.fingerprint(schemes[s].name, first[s].fingerprint);
        report.raw(std::string("run_s.") + schemes[s].name,
                   median(run_s[s]));
    }
    report.raw("gap", median(gaps));
    report.raw("repetitions", static_cast<double>(gaps.size()));
    report.provenance("steal_share", std::to_string(steal.share()));
    // How far the host's speed moved inside this run.
    for (int s = 0; s < 2; ++s) {
        std::string spread;
        for (double q : { 0.1, 0.25, 0.5, 0.75, 0.9 })
            spread += std::to_string(std::lround(quantile(eps[s], q))) + " ";
        report.provenance(std::string(schemes[s].name) +
                              "_interval_eps_p10_p25_p50_p75_p90",
                          spread + "n=" + std::to_string(eps[s].size()));
    }
}

std::unique_ptr<MemController>
makeController(const SystemConfig &config, NvmDevice &device,
               const SchemeOptions &scheme)
{
    if (scheme.kind == SchemeKind::DeWrite) {
        return std::make_unique<DeWriteController>(
            config, device, defaultAesKey(), scheme.dewrite);
    }
    return std::make_unique<SecureBaselineController>(
        config, device, defaultAesKey(), scheme.baseline);
}

void
runTracedScheme(const Options &options, const Workload &w,
                const SchemeSpec &scheme, Report &report)
{
    auto inputs = makeInputs(w, /*timed=*/true);
    const SystemConfig config = w.config();
    validateConfig(config);
    NvmDevice device(config);
    const std::unique_ptr<MemController> controller =
        makeController(config, device, scheme.options);
    TimedController timed(*controller);
    CoreModel core(config.timing);
    obs::MetricRegistry registry;
    device.registerMetrics(registry.scope("device"));
    core.registerMetrics(registry.scope("core"));
    controller->registerMetrics(registry);

    // A seeded parity fault: one event more than the untraced run.
    const std::uint64_t events =
        w.events + (options.fault == Options::Fault::Parity ? 1 : 0);
    const double t0 = wallSeconds();
    const std::uint64_t start = obs::stageClock();
    RunResult run = core.runMulti(inputs->traces, timed, events);
    const std::uint64_t wall_ticks = obs::stageClock() - start;
    report.raw(std::string("run_s.") + scheme.name, wallSeconds() - t0);

    // What System::run completes, with the averages taken from the
    // wrapped controller (the decorator keeps no accounting).
    run.avgWriteLatencyNs = controller->avgWriteLatency() / kNanoSecond;
    run.avgReadLatencyNs = controller->avgReadLatency() / kNanoSecond;
    run.totalEnergy = device.totalEnergy() + controller->controllerEnergy();
    run.nvmLineWrites = device.numWrites();
    run.nvmLineReads = device.numReads();
    run.bitsProgrammed = controller->dataBitsProgrammed();
    const std::vector<obs::MetricSample> snapshot = registry.snapshot();
    report.fingerprint(scheme.name,
                       resultFingerprint(
                           makeCell(w, *controller, run, snapshot)));

    LayerTimes times;
    times.wallTicks = wall_ticks;
    times.traceTicks = inputs->log.traceTicks;
    times.writeTicks = timed.writeTicks;
    times.readTicks = timed.readTicks;
    times.writesTimed = timed.writesTimed;
    times.readsTimed = timed.readsTimed;
    times.events = run.events;
    times.writesStaged = core.former().writesStaged();
    times.flushes = core.former().flushes();
    times.flushesQueueFull = core.former().flushesOnQueueFull();
    reportLayers(report, scheme.name, registryValues(snapshot), times);
    if (scheme.options.kind == SchemeKind::DeWrite)
        reportCryptoKernels(report, inputs->log.sample);

    Time now = 0;
    verifyReadBack(
        report, options, w, regenerate(w, inputs->log), scheme.name,
        [&](LineAddr addr) {
            CtrlReadResult result = controller->read(addr, now);
            now += result.latency;
            return result;
        },
        [&](LineAddr addr, const Line &data) {
            now += controller->write(addr, data, now).latency;
        });
}

} // namespace

void
runSystemWorkload(const Options &options, Report &report)
{
    const Workload w = workloadFor(options);
    if (!options.traced) {
        runUntracedWorkload(options, w, report);
        return;
    }
    if (!obs::stageProfileEnabled())
        throw std::runtime_error("traced mode needs DEWRITE_STAGE_PROFILE=1");
    for (const SchemeSpec &scheme : comparedSchemes())
        runTracedScheme(options, w, scheme, report);
    runServiceSection(options, report);
}

} // namespace dwbench
