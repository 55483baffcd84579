/**
 * @file
 * SetAssocCache implementation.
 */

#include "cache/set_assoc_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dewrite {

namespace {

/** Mixes block keys so adjacent blocks do not all map to one set. */
std::uint64_t
mixKey(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return key;
}

/** use_ word layout: 0 = invalid, else (useClock << 1) | dirty. */
constexpr std::uint64_t kDirtyBit = 1;

} // namespace

SetAssocCache::SetAssocCache(std::size_t num_blocks, unsigned associativity)
    : numBlocks_(num_blocks), associativity_(associativity)
{
    if (associativity_ == 0)
        fatal("cache associativity must be nonzero");
    numSets_ = std::max<std::size_t>(1, num_blocks / associativity_);
    numBlocks_ = numSets_ * associativity_;
    setDiv_ = FastDiv(numSets_);
    keys_.resize(numBlocks_, 0);
    use_.resize(numBlocks_, 0);
}

std::size_t
SetAssocCache::setIndex(std::uint64_t key) const
{
    // FastDiv::mod is bit-identical to % but avoids the hardware
    // divide; this runs on every directory probe of every metadata
    // partition, which profiling puts near the top of the host cost.
    return setDiv_.mod(mixKey(key));
}

// dewrite-lint: hot
bool
SetAssocCache::access(std::uint64_t key, bool make_dirty)
{
    const std::size_t base = setIndex(key) * associativity_;
    for (unsigned w = 0; w < associativity_; ++w) {
        const std::size_t slot = base + w;
        if (keys_[slot] == key && use_[slot] != 0) {
            use_[slot] = (++useClock_ << 1) |
                         ((use_[slot] & kDirtyBit) |
                          (make_dirty ? kDirtyBit : 0));
            hits_.increment();
            return true;
        }
    }
    misses_.increment();
    return false;
}

CacheEviction
SetAssocCache::insert(std::uint64_t key, bool dirty)
{
    const std::size_t base = setIndex(key) * associativity_;
    std::size_t victim = base;
    bool found = false;
    for (unsigned w = 0; w < associativity_; ++w) {
        const std::size_t slot = base + w;
        if (use_[slot] == 0) {
            victim = slot;
            found = true;
            break;
        }
        if (keys_[slot] == key)
            panic("inserting key %llu already resident",
                  static_cast<unsigned long long>(key));
        // Comparing the packed words orders by use clock: the clock is
        // strictly increasing, so the dirty bit can never tie-break.
        if (!found || use_[slot] < use_[victim]) {
            victim = slot;
            found = true;
        }
    }

    CacheEviction eviction;
    if (use_[victim] != 0) {
        eviction.valid = true;
        eviction.key = keys_[victim];
        eviction.dirty = (use_[victim] & kDirtyBit) != 0;
        if (eviction.dirty)
            dirtyEvictions_.increment();
    }

    keys_[victim] = key;
    use_[victim] = (++useClock_ << 1) | (dirty ? kDirtyBit : 0);
    return eviction;
}

bool
SetAssocCache::contains(std::uint64_t key) const
{
    const std::size_t base = setIndex(key) * associativity_;
    for (unsigned w = 0; w < associativity_; ++w) {
        if (keys_[base + w] == key && use_[base + w] != 0)
            return true;
    }
    return false;
}

CacheEviction
SetAssocCache::invalidate(std::uint64_t key)
{
    const std::size_t base = setIndex(key) * associativity_;
    for (unsigned w = 0; w < associativity_; ++w) {
        const std::size_t slot = base + w;
        if (keys_[slot] == key && use_[slot] != 0) {
            CacheEviction eviction{ true, keys_[slot],
                                    (use_[slot] & kDirtyBit) != 0 };
            if (eviction.dirty)
                dirtyEvictions_.increment();
            keys_[slot] = 0;
            use_[slot] = 0;
            return eviction;
        }
    }
    return {};
}

double
SetAssocCache::hitRate() const
{
    const std::uint64_t total = hits_.value() + misses_.value();
    return total ? static_cast<double>(hits_.value()) / total : 0.0;
}

void
SetAssocCache::flush()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(use_.begin(), use_.end(), 0);
}

std::vector<std::uint64_t>
SetAssocCache::dirtyKeys() const
{
    std::vector<std::uint64_t> keys;
    for (std::size_t slot = 0; slot < use_.size(); ++slot) {
        if (use_[slot] != 0 && (use_[slot] & kDirtyBit))
            keys.push_back(keys_[slot]);
    }
    return keys;
}

void
SetAssocCache::cleanAll()
{
    for (auto &use : use_)
        use &= ~kDirtyBit;
}

} // namespace dewrite
