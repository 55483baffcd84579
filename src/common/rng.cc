/**
 * @file
 * Rng implementation (xoshiro256** + SplitMix64 seeding).
 */

#include "common/rng.hh"

#include <cmath>

namespace dewrite {

namespace {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::nextExponential(double mean)
{
    if (mean <= 0.0)
        return 0;
    double u = nextDouble();
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double sample = -mean * std::log(u);
    return static_cast<std::uint64_t>(sample);
}

const Rng::ZipfTerms &
Rng::zipfTerms(std::uint64_t n, double theta)
{
    for (const ZipfTerms &entry : zipf_) {
        if (entry.valid && entry.n == n && entry.theta == theta)
            return entry;
    }
    ZipfTerms &entry = zipf_[zipfVictim_];
    zipfVictim_ ^= 1;
    entry.n = n;
    entry.theta = theta;
    entry.thetaOne = std::abs(theta - 1.0) < 1e-9;
    if (entry.thetaOne) {
        entry.top = std::log(static_cast<double>(n) + 1.0);
        entry.invExp = 0.0;
    } else {
        const double one_minus = 1.0 - theta;
        entry.top = std::pow(static_cast<double>(n) + 1.0, one_minus);
        entry.invExp = 1.0 / one_minus;
    }
    entry.valid = true;
    return entry;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double theta)
{
    if (n <= 1)
        return 0;
    // Continuous bounded-Pareto inversion: a fast O(1) approximation of
    // the discrete Zipf CDF, more than adequate for shaping content
    // popularity in synthetic workloads.
    const double u = nextDouble();
    const ZipfTerms &terms = zipfTerms(n, theta);
    double x;
    if (terms.thetaOne) {
        x = std::exp(u * terms.top);
    } else {
        x = std::pow(u * (terms.top - 1.0) + 1.0, terms.invExp);
    }
    auto rank = static_cast<std::uint64_t>(x) - 1;
    return rank >= n ? n - 1 : rank;
}

} // namespace dewrite
