/**
 * @file
 * Synthetic workload generation — the SPEC CPU2006 / PARSEC substitute.
 *
 * Real traces are not redistributable, so each application is modelled
 * by a parameterized generator calibrated to the paper's measured
 * content statistics (DESIGN.md Section 2):
 *
 *  - duplicate-line fraction of write-backs (Figure 2, 18.6%..98.4%);
 *  - zero-line share of those duplicates (Figure 2, sjeng-dominated);
 *  - temporal locality of the duplicate state via a sticky Markov
 *    process (Figure 4's ~92% same-as-previous probability);
 *  - content popularity skew (Figure 7's reference-count tail);
 *  - word-sparse rewrites of unique lines (what DEUCE exploits);
 *  - memory intensity via exponential instruction gaps.
 *
 * Duplicates are duplicates *by construction*: the generator mirrors
 * the memory image and copies the content of a currently-live line, so
 * measured duplication tracks the configured target.
 */

#ifndef DEWRITE_TRACE_TRACE_GEN_HH
#define DEWRITE_TRACE_TRACE_GEN_HH

#include <memory>
#include <string>
#include <vector>

#include "common/dense_line_store.hh"
#include "common/rng.hh"
#include "trace/trace.hh"

namespace dewrite {

/** Calibrated parameters of one application. */
struct AppProfile
{
    std::string name;
    std::string suite;              //!< "SPEC" or "PARSEC".
    double dupTarget = 0.5;         //!< Duplicate fraction of write-backs.
    double zeroGivenDup = 0.2;      //!< P(content is the zero line | dup).
    double statePersistence = 0.9;  //!< Stickiness of the dup-state chain.
    double glitchRate = 0.03;       //!< P(write deviates from its phase).
    double writeFraction = 0.5;     //!< P(event is a write-back).
    double rewriteFraction = 0.6;   //!< P(unique write mutates a line).
    unsigned mutateWordsMax = 6;    //!< Max 64-bit words per rewrite.
    std::uint64_t workingSetLines = 32768;
    double instGapMean = 100.0;     //!< Mean instructions between events.
    double popularityTheta = 0.7;   //!< Zipf skew of dup-source choice.
};

/**
 * Duplicate-state phase shared by the co-running instances of one
 * application. Real programs move through program-wide phases (an
 * initialization burst, a copy loop), so the *interleaved* write-back
 * stream of several cores keeps the temporal locality Figure 4
 * measures; independent per-core states would destroy it.
 */
struct SharedPhase
{
    bool prevDup = false;
    bool started = false;
};

class SyntheticWorkload : public TraceSource
{
  public:
    SyntheticWorkload(const AppProfile &profile, std::uint64_t seed);

    /**
     * Multi-core variant: @p addr_base offsets this instance's address
     * space (co-running processes do not share lines) and @p phase
     * couples the duplicate-state process across instances.
     */
    SyntheticWorkload(const AppProfile &profile, std::uint64_t seed,
                      LineAddr addr_base,
                      std::shared_ptr<SharedPhase> phase);

    bool next(MemEvent &event) override;

    const AppProfile &profile() const { return profile_; }

  private:
    /** Picks an already-written address, recency-skewed by @p theta. */
    LineAddr sampleWrittenAddr(double theta);

    /** True iff the last write to @p addr carried duplicate content. */
    bool
    lastWriteWasDup(LineAddr addr) const
    {
        const std::uint64_t line = addr - addrBase_;
        return (dupWritten_[line / 64] >> (line % 64)) & 1;
    }

    /**
     * Picks a read target. Reads model LLC *misses*: the hottest lines
     * and bulk-duplicated regions (zero fills, copies) are served by
     * the CPU caches or never read back, so read sampling uses a
     * flatter skew and avoids duplicate-content lines.
     */
    LineAddr sampleReadAddr();

    /** Chooses the target address of a write (fresh or rewrite). */
    LineAddr chooseWriteAddr();

    /** Produces fresh content guaranteed unique across the run. */
    Line makeUniqueContent(LineAddr addr);

    AppProfile profile_;
    Rng rng_;
    LineAddr addrBase_;
    std::shared_ptr<SharedPhase> phase_;
    double phaseDupProb_; //!< Phase-level dup prob after glitch removal.

    DenseLineStore image_; //!< Mirror of memory.
    /** Bit addr - addrBase_ is set iff addr's last write was a dup. */
    std::vector<std::uint64_t> dupWritten_;
    std::uint64_t uniqueStamp_ = 0;
    /**
     * Fresh addresses are handed out in order and never reused, so the
     * written set is exactly [addrBase_, addrBase_ + nextFreshAddr_),
     * first-written in ascending order.
     */
    LineAddr nextFreshAddr_ = 0;
};

/**
 * The paper's worst-case microbenchmark (Section IV-C4): randomized
 * values inserted into a two-dimensional array, then traversed — no
 * duplicate write ever occurs.
 */
class WorstCaseWorkload : public TraceSource
{
  public:
    WorstCaseWorkload(std::uint64_t working_set_lines, double inst_gap_mean,
                      std::uint64_t seed);

    bool next(MemEvent &event) override;

  private:
    std::uint64_t workingSet_;
    double instGapMean_;
    Rng rng_;
    std::uint64_t position_ = 0;
    std::uint64_t stamp_ = 0;
    bool writePhase_ = true;
};

} // namespace dewrite

#endif // DEWRITE_TRACE_TRACE_GEN_HH
