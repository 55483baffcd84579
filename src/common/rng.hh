/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The synthetic workload generators must be exactly reproducible across
 * runs and platforms, so we implement xoshiro256** (seeded via SplitMix64)
 * rather than relying on std::mt19937 distribution implementations, whose
 * std::*_distribution outputs are not specified bit-for-bit.
 */

#ifndef DEWRITE_COMMON_RNG_HH
#define DEWRITE_COMMON_RNG_HH

#include <bit>
#include <cstdint>

namespace dewrite {

/**
 * xoshiro256** generator with convenience samplers.
 *
 * All samplers are implemented on top of next64() with explicit,
 * platform-independent arithmetic.
 */
class Rng
{
  public:
    /** Seeds the state from a single 64-bit seed using SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    // Defined here so they inline into the workload generators, which
    // call them many times per event.
    /** Next raw 64-bit output. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Debiased multiply-shift (Lemire); the bias without rejection
        // is negligible for workload generation, so we keep the fast
        // path only.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next64()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Geometric-ish draw: samples from an exponential distribution with
     * mean @p mean, rounded to an integer (minimum 0). Used for
     * instruction gaps between memory events.
     */
    std::uint64_t nextExponential(double mean);

    /**
     * Zipf-like rank sampler over [0, n): rank r is drawn with probability
     * proportional to 1 / (r + 1)^theta. Used to model the skewed
     * popularity of duplicate line contents (a few contents are referenced
     * by very many lines, Figure 7).
     */
    std::uint64_t nextZipf(std::uint64_t n, double theta);

  private:
    /**
     * Memo for nextZipf's (n, theta)-dependent libm terms. Workload
     * generators draw many samples before n changes, and alternate
     * between at most two theta values, so a two-entry cache removes
     * one pow()/log() from nearly every draw. Pure memoization: the
     * cached values are the same doubles the direct computation yields,
     * so the sampled sequence is bit-identical.
     */
    struct ZipfTerms
    {
        std::uint64_t n = 0;
        double theta = 0.0;
        double top = 0.0;    //!< pow(n+1, 1-theta), or log(n+1) at theta=1.
        double invExp = 0.0; //!< 1 / (1 - theta); unused at theta=1.
        bool thetaOne = false;
        bool valid = false;
    };

    const ZipfTerms &zipfTerms(std::uint64_t n, double theta);

    std::uint64_t state_[4];
    ZipfTerms zipf_[2];
    unsigned zipfVictim_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_COMMON_RNG_HH
