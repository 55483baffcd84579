/**
 * @file
 * SyntheticWorkload and WorstCaseWorkload implementation.
 */

#include "trace/trace_gen.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dewrite {

SyntheticWorkload::SyntheticWorkload(const AppProfile &profile,
                                     std::uint64_t seed,
                                     LineAddr addr_base,
                                     std::shared_ptr<SharedPhase> phase)
    : profile_(profile), rng_(seed), addrBase_(addr_base),
      phase_(phase ? std::move(phase) : std::make_shared<SharedPhase>())
{
    if (profile.workingSetLines == 0)
        fatal("workload '%s' has an empty working set",
              profile.name.c_str());
    if (profile.glitchRate < 0.0 || profile.glitchRate >= 0.5)
        fatal("glitch rate must be in [0, 0.5)");
    // Glitches pull the realized duplicate fraction toward 1/2, so the
    // phase-level probability compensates to keep the app's target:
    // target = p*(1-g) + (1-p)*g  =>  p = (target-g)/(1-2g).
    const double g = profile.glitchRate;
    phaseDupProb_ = std::clamp((profile.dupTarget - g) / (1.0 - 2.0 * g),
                               0.0, 1.0);
    // The generator only touches [addrBase_, addrBase_ + workingSet);
    // size the mirror and the dup bits once so no growth happens while
    // generating.
    image_.reserve(addr_base + profile.workingSetLines);
    dupWritten_.resize((profile.workingSetLines + 63) / 64);
}

SyntheticWorkload::SyntheticWorkload(const AppProfile &profile,
                                     std::uint64_t seed)
    : SyntheticWorkload(profile, seed, 0, nullptr)
{
}

LineAddr
SyntheticWorkload::sampleWrittenAddr(double theta)
{
    // Recency-skewed: rank 0 = most recently first-written address.
    // The Zipf tail makes a few contents massively shared (Figure 7)
    // while keeping most reference counts tiny.
    const std::uint64_t n = nextFreshAddr_;
    const std::uint64_t rank = rng_.nextZipf(n, theta);
    return addrBase_ + (n - 1 - rank);
}

LineAddr
SyntheticWorkload::sampleReadAddr()
{
    // Flatter skew than writes (the CPU caches absorb the hottest
    // lines) and a strong preference for unique-content lines (bulk
    // zero fills and copies are rarely read back from memory).
    LineAddr addr = sampleWrittenAddr(profile_.popularityTheta * 0.5);
    for (int retry = 0; retry < 3 && lastWriteWasDup(addr); ++retry)
        addr = sampleWrittenAddr(profile_.popularityTheta * 0.5);
    return addr;
}

LineAddr
SyntheticWorkload::chooseWriteAddr()
{
    const bool working_set_full =
        nextFreshAddr_ >= profile_.workingSetLines;
    if (nextFreshAddr_ != 0 && (working_set_full || rng_.chance(0.6))) {
        return sampleWrittenAddr(profile_.popularityTheta);
    }
    return addrBase_ + nextFreshAddr_++;
}

Line
SyntheticWorkload::makeUniqueContent(LineAddr addr)
{
    // A unique write either initializes fresh memory (sparse content:
    // mostly-zero with a few live words, as allocators and memset-like
    // initialization produce) or overwrites dense in-use data. Either
    // way a monotonically increasing stamp guarantees the content never
    // matches any line in memory.
    Line content;
    if (rng_.chance(0.5)) {
        content = Line::random(rng_);
    } else {
        const unsigned live = 1 + static_cast<unsigned>(rng_.nextBelow(6));
        for (unsigned i = 0; i < live; ++i) {
            content.setWord64(rng_.nextBelow(kLineSize / 8),
                              rng_.next64());
        }
    }
    content.setWord64(0, ++uniqueStamp_);
    content.setWord64(1, addr * 0x9e3779b97f4a7c15ULL);
    return content;
}

bool
SyntheticWorkload::next(MemEvent &event)
{
    event.instGap = rng_.nextExponential(profile_.instGapMean);

    const bool is_write =
        nextFreshAddr_ == 0 || rng_.chance(profile_.writeFraction);

    if (!is_write) {
        event.isWrite = false;
        event.addr = sampleReadAddr();
        return true;
    }

    // Sticky Markov duplicate-state process: with probability
    // statePersistence keep the previous phase, otherwise resample from
    // the app's stationary duplicate fraction. The phase is shared
    // across co-running instances (program-wide phases). On top of the
    // phase, isolated glitches deviate for a single write — they are
    // what makes the majority-of-3 predictor beat last-state
    // prediction (Figure 4).
    bool phase_dup;
    if (phase_->started && nextFreshAddr_ != 0 &&
        rng_.chance(profile_.statePersistence)) {
        phase_dup = phase_->prevDup;
    } else {
        phase_dup = rng_.chance(phaseDupProb_);
    }
    bool dup = rng_.chance(profile_.glitchRate) ? !phase_dup : phase_dup;
    if (nextFreshAddr_ == 0) {
        phase_dup = false;
        dup = false;
    }

    event.isWrite = true;
    if (dup) {
        if (rng_.chance(profile_.zeroGivenDup)) {
            event.data = Line();
        } else {
            // Copy a live non-zero content; retrying on zeros keeps
            // zeroGivenDup the sole control of the zero-line share
            // (zeros would otherwise snowball through resampling).
            event.data =
                *image_.find(sampleWrittenAddr(profile_.popularityTheta));
            for (int retry = 0; retry < 4 && event.data.isZero();
                 ++retry) {
                event.data = *image_.find(
                    sampleWrittenAddr(profile_.popularityTheta));
            }
        }
        event.addr = chooseWriteAddr();
    } else {
        event.addr = chooseWriteAddr();
        const Line *existing = image_.find(event.addr);
        if (existing && rng_.chance(profile_.rewriteFraction)) {
            // Word-sparse rewrite of live data — the access pattern
            // DEUCE's partial re-encryption exploits. A line's hot
            // words are fixed per address (the same counter/pointer
            // fields change on every rewrite), so the modified set a
            // DEUCE epoch accumulates stays small.
            event.data = *existing;
            const unsigned words =
                1 + static_cast<unsigned>(event.addr %
                                          profile_.mutateWordsMax);
            for (unsigned i = 0; i < words; ++i) {
                const std::size_t hot =
                    (event.addr * 0x9e3779b9ULL + i * 7) %
                    (kLineSize / 8);
                event.data.setWord64(hot, rng_.next64());
            }
            event.data.setWord64(2, ++uniqueStamp_);
        } else {
            event.data = makeUniqueContent(event.addr);
        }
    }

    image_.refForWrite(event.addr) = event.data;
    const std::uint64_t line = event.addr - addrBase_;
    const std::uint64_t bit = 1ULL << (line % 64);
    if (dup)
        dupWritten_[line / 64] |= bit;
    else
        dupWritten_[line / 64] &= ~bit;
    phase_->prevDup = phase_dup;
    phase_->started = true;
    return true;
}

WorstCaseWorkload::WorstCaseWorkload(std::uint64_t working_set_lines,
                                     double inst_gap_mean,
                                     std::uint64_t seed)
    : workingSet_(working_set_lines), instGapMean_(inst_gap_mean),
      rng_(seed)
{
    if (working_set_lines == 0)
        fatal("worst-case workload needs a nonzero working set");
}

bool
WorstCaseWorkload::next(MemEvent &event)
{
    event.instGap = rng_.nextExponential(instGapMean_);
    event.addr = position_;

    if (writePhase_) {
        event.isWrite = true;
        event.data = Line::random(rng_);
        event.data.setWord64(0, ++stamp_); // Never a duplicate.
    } else {
        event.isWrite = false;
    }

    if (++position_ == workingSet_) {
        position_ = 0;
        writePhase_ = !writePhase_;
    }
    return true;
}

} // namespace dewrite
