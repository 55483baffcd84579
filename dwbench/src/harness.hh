/**
 * @file
 * Shared pieces of the dwbench binary: invocation options, the report
 * every mode fills, host probes, and the benchmark-side wrappers that
 * time calls into the simulator's layers without instrumenting it.
 */

#ifndef DWBENCH_HARNESS_HH
#define DWBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "controller/mem_controller.hh"
#include "obs/metric_registry.hh"
#include "sim/experiment.hh"
#include "trace/trace.hh"
#include "trace/trace_gen.hh"

namespace dwbench {

using dewrite::Line;
using dewrite::LineAddr;

/** One invocation of the benchmark binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget; one repetition always runs, more while it
     * lasts. */
    double seconds = 0.0;
    bool traced = false;
    bool tiny = false; //!< Self-test scale: small working sets.
    /** Seeded faults that prove the checker reports failures. */
    enum class Fault
    {
        None,
        Line,   //!< Overwrite one line before the read-back.
        Parity, //!< Run one event more than the run it is compared with.
    } fault = Fault::None;
};

/** The two schemes every workload compares, in report-name order. */
struct SchemeSpec
{
    const char *name; //!< "dewrite" or "baseline".
    dewrite::SchemeOptions options;
};
std::vector<SchemeSpec> comparedSchemes();

/** Everything one invocation prints: metrics, checks, raw run data. */
class Report
{
  public:
    void metric(const std::string &name, double value, const char *unit);

    /** Tallies one check; a failure keeps its description. */
    void check(bool ok, const std::string &what);
    /** Tallies @p attempted checks of which @p failed failed. */
    void checks(std::uint64_t attempted, std::uint64_t failed,
                const std::string &what);

    /** Result fingerprints, compared across processes by run.py. */
    void fingerprint(const std::string &scheme, std::uint32_t value);
    /** A raw number run.py combines across processes. */
    void raw(const std::string &name, double value);
    void provenance(const std::string &name, const std::string &value);

    /** Prints the whole report as one JSON line on stdout. */
    void print(const Options &options) const;

  private:
    struct Metric
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::vector<std::uint32_t>> fingerprints_;
    std::map<std::string, double> raw_;
    std::map<std::string, std::string> provenance_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** @{ Host probes. */
double wallSeconds(); //!< steady_clock, seconds.

/** Host TSC ticks per nanosecond (calibrated once per process). */
double ticksPerNs();

/** Accumulates the steal share of all CPUs over timed windows. */
class StealMeter
{
  public:
    void start();
    void stop();
    /** steal / total jiffies over every window so far (0 if unread). */
    double share() const;

  private:
    std::uint64_t total_ = 0;
    std::uint64_t steal_ = 0;
    std::uint64_t startTotal_ = 0;
    std::uint64_t startSteal_ = 0;
};

/**
 * Returns heap pages earlier runs freed to the kernel, so every set-up
 * faults its memory in afresh and none counts against a later peak.
 */
void releaseFreedMemory();
/** Releases freed memory, then restarts the peak-RSS watermark (where
 * the kernel lets us). */
void resetPeakRss();
/** Peak resident set since the last reset, MiB. */
double peakRssMiB();

/** Quantile @p q of @p values, interpolating linearly (0 if empty). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/** @} */

/**
 * Bookkeeping shared by one run's per-core trace wrappers: the core of
 * every pull (the generators share a SharedPhase, so regenerating the
 * inputs must replay this order), the warm-up point, wall-clock marks
 * for the steady-state interval rates, and — when timed — host ticks
 * spent inside TraceSource::next plus a sample of written lines for the
 * crypto kernel replay.
 */
struct PullLog
{
    /** Pulls per interval of the steady-state rate samples. */
    static constexpr std::uint64_t kMarkPulls = 1 << 16;

    std::vector<std::uint8_t> order;
    /** wallSeconds() at every kMarkPulls-th pull. */
    std::vector<double> marks;
    unsigned coresFilling = 0;
    double warmAt = -1.0;     //!< wallSeconds() when the last core filled.
    std::uint64_t warmPulls = 0;
    std::uint64_t traceTicks = 0;
    std::vector<std::pair<LineAddr, Line>> sample;
    std::size_t sampleCap = 0;
};

/** Forwards one core's generator and feeds the run's PullLog. */
class CoreTrace : public dewrite::TraceSource
{
  public:
    CoreTrace(dewrite::TraceSource &inner, unsigned core, LineAddr base,
              std::uint64_t lines, PullLog &log, bool timed);

    bool next(dewrite::MemEvent &event) override;

  private:
    dewrite::TraceSource &inner_;
    std::uint8_t core_;
    LineAddr base_;
    std::vector<std::uint8_t> written_;
    std::uint64_t unwritten_;
    PullLog &log_;
    bool timed_;
};

/**
 * Forwarding decorator that times every call into a controller. It
 * keeps no request accounting of its own, so the averages a CoreModel
 * or ShardCore reads from it are zero: callers take them from the
 * wrapped controller.
 */
class TimedController : public dewrite::MemController
{
  public:
    explicit TimedController(dewrite::MemController &inner) : inner_(inner)
    {
    }

    dewrite::CtrlWriteResult write(LineAddr addr, const Line &data,
                                   dewrite::Time now) override;
    dewrite::CtrlReadResult read(LineAddr addr, dewrite::Time now) override;
    dewrite::CtrlReadResult readTiming(LineAddr addr,
                                       dewrite::Time now) override;
    void writeBatch(const dewrite::CtrlWriteRequest *requests,
                    dewrite::CtrlWriteResult *results,
                    std::size_t count) override;
    std::string name() const override { return inner_.name(); }
    dewrite::Energy controllerEnergy() const override
    {
        return inner_.controllerEnergy();
    }

    std::uint64_t writeTicks = 0;
    std::uint64_t readTicks = 0;
    std::uint64_t writesTimed = 0;
    std::uint64_t readsTimed = 0;

  private:
    dewrite::MemController &inner_;
};

/** Registry snapshot as path → value. */
std::map<std::string, double> registryValues(
    const std::vector<dewrite::obs::MetricSample> &snapshot);

/**
 * Host time per layer of one traced run, in TSC ticks, plus the
 * batch-former counts of the core model that drove it.
 */
struct LayerTimes
{
    std::uint64_t wallTicks = 0;
    std::uint64_t traceTicks = 0;
    std::uint64_t writeTicks = 0;  //!< Inside the controller's writes.
    std::uint64_t readTicks = 0;   //!< Inside the controller's reads.
    std::uint64_t writesTimed = 0;
    std::uint64_t readsTimed = 0;
    std::uint64_t events = 0;
    std::uint64_t writesStaged = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flushesQueueFull = 0;
};

/**
 * Reports the per-layer metrics of one scheme's traced run under
 * "<scheme>." (cpu, controller, crypto, nvm), plus the DeWrite-only
 * dedup and metadata-cache metrics and the baseline's counter cache.
 */
void reportLayers(Report &report, const std::string &scheme,
                  const std::map<std::string, double> &registry,
                  const LayerTimes &times);

/** sim.*: DeWrite relative to the baseline (Figures 12, 14, 16, 17,
 * 19). */
void reportSim(Report &report, const dewrite::RunResult &dewrite_run,
               const dewrite::RunResult &baseline_run);

/** Times encryptLine and crc32 over written lines; reports crypto.*. */
void reportCryptoKernels(
    Report &report, const std::vector<std::pair<LineAddr, Line>> &lines);

/** Runs one workload (dup-heavy or unique-heavy) in the mode @p options
 * asks for. */
void runSystemWorkload(const Options &options, Report &report);

/** The service-3shard section of a traced measurement: the service's
 * runs, its parity checks and its timed single-thread replay. */
void runServiceSection(const Options &options, Report &report);

} // namespace dwbench

#endif // DWBENCH_HARNESS_HH
