/**
 * @file
 * The trace-driven in-order core model (the gem5 CPU substitute).
 *
 * Executes non-memory instructions at one per cycle and stalls on every
 * memory event. Reads stall because the core is in-order; writes stall
 * because this is *persistent* memory — consistency requires ordered
 * cache-line flushes and fences, so a write's full latency lands on the
 * critical path (Section III, the premise of the whole paper). IPC is
 * therefore directly sensitive to the write latency each controller
 * scheme achieves.
 */

#ifndef DEWRITE_CPU_CORE_MODEL_HH
#define DEWRITE_CPU_CORE_MODEL_HH

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/check.hh"
#include "common/timing.hh"
#include "common/types.hh"
#include "cpu/batch_former.hh"

namespace dewrite {

class TraceSource;
struct MemEvent;

/**
 * Writes handed to the controller per batched step: DEWRITE_BATCH
 * (envUint, 1..64, default 16; 1 disables batching). Read per run.
 */
std::size_t writeBatchSize();

/** Aggregate outcome of one simulation run. */
struct RunResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t writesEliminated = 0;

    double ipc = 0.0;
    double avgWriteLatencyNs = 0.0;
    double avgReadLatencyNs = 0.0;

    /** Filled by System::run: device + controller energy, pJ. */
    Energy totalEnergy = 0;
    std::uint64_t nvmLineWrites = 0; //!< Device writes incl. metadata.
    std::uint64_t nvmLineReads = 0;
    std::uint64_t bitsProgrammed = 0; //!< Data cells programmed.
};

/**
 * One in-order core: its clock, its persist store queue and its event
 * counts. Both trace-driven loops drive it — CoreModel::runMulti (one
 * step per core) and the service's ShardCore — so the core's issue,
 * stall and read logic has exactly one copy.
 *
 * A write is staged into the former and takes a store-queue entry; the
 * former may be shared by several cores, so a flush forced by any
 * core's event hands each flushed write's completion back to the core
 * that staged it (resolve()). The core stalls only when its queue is
 * full, until the oldest entry completes.
 */
class CoreStep
{
  public:
    CoreStep(const TimingConfig &timing, MemController &controller,
             BatchFormer &former)
        : timing_(timing), controller_(controller), former_(former)
    {
    }

    /** Issues @p event after its compute phase. */
    void feed(const MemEvent &event);

    /** When the next event, @p inst_gap instructions on, would issue. */
    Time
    issueAt(std::uint64_t inst_gap) const
    {
        // The +1 cycle is the memory instruction's own issue slot, so
        // IPC can reach but not exceed one per core.
        return now_ + timing_.cycles(inst_gap + 1);
    }

    /**
     * Completion of this core's oldest unresolved write. The former
     * calls it in stage order, which is each core's queue order, so
     * the unresolved entries are always the newest ones.
     */
    void
    resolve(Time complete, bool eliminated)
    {
        DEWRITE_DCHECK(unresolved_ > 0, "no staged write to resolve");
        storeQueue_[storeQueue_.size() - unresolved_--] = complete;
        if (eliminated)
            ++counts_.writesEliminated;
    }

    Time now() const { return now_; }

    /** Event counts (instructions, events, writes, reads, eliminated). */
    const RunResult &counts() const { return counts_; }

  private:
    const TimingConfig &timing_;
    MemController &controller_;
    BatchFormer &former_;

    std::deque<Time> storeQueue_; //!< In-flight write completions.
    std::size_t unresolved_ = 0;  //!< Newest entries still staged.
    Time now_ = 0;
    RunResult counts_;
};

/**
 * The run's outcome over @p cores: counts sum over the cores, cycles
 * are the slowest core's (so IPC is aggregate, up to one per core),
 * and the average latencies are @p controller's. Memory-side fields
 * stay zero; System::run completes them.
 */
RunResult tally(std::span<const CoreStep> cores, const TimingConfig &timing,
                const MemController &controller);

class CoreModel
{
  public:
    explicit CoreModel(const TimingConfig &timing) : timing_(timing) {}

    /**
     * Drives @p controller with up to @p max_events events from
     * @p trace and returns the core-side accounting (memory-side
     * fields are zero; System::run completes them).
     */
    RunResult run(TraceSource &trace, MemController &controller,
                  std::uint64_t max_events);

    /**
     * Multi-core replay: each trace drives one core with its own local
     * clock; the next event issued is always the globally earliest, so
     * requests from different cores overlap at the controller and
     * contend for banks — the condition under which eliminating writes
     * also accelerates reads (Section I). @p max_events bounds the
     * total across cores; cycles are the slowest core's, instructions
     * sum over cores (so IPC is aggregate, up to one per core).
     */
    RunResult runMulti(const std::vector<TraceSource *> &traces,
                       MemController &controller,
                       std::uint64_t max_events);

    /**
     * Registers the batch former's flush-reason counters under
     * @p scope (the System passes "core"). Host-side accounting only;
     * simulated results carry no trace of it.
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

    /** The write-batch former (counters persist across runs). */
    const BatchFormer &former() const { return former_; }

  private:
    const TimingConfig &timing_;
    BatchFormer former_;
};

} // namespace dewrite

#endif // DEWRITE_CPU_CORE_MODEL_HH
