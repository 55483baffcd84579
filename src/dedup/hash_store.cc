/**
 * @file
 * HashStore implementation.
 */

#include "dedup/hash_store.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"

namespace dewrite {

ChainView
HashStore::view(const Chain &chain) const
{
    if (chain.count <= Chain::kInline)
        return ChainView(chain.inlineSlots, chain.count);
    return ChainView(spills_[chain.spillSlot]);
}

ChainView
HashStore::lookup(std::uint64_t hash) const
{
    const Chain *chain = chains_.find(hash);
    return chain ? view(*chain) : ChainView();
}

void
HashStore::append(Chain &chain, LineAddr slot)
{
    DEWRITE_DCHECK(slot < PagedArray<LineRecord>::kMaxDirectEntries,
                   "hash store: slot %llu outside the direct range",
                   static_cast<unsigned long long>(slot));
    const auto id = static_cast<std::uint32_t>(slot);
    if (chain.count < Chain::kInline) {
        chain.inlineSlots[chain.count++] = id;
        return;
    }
    if (chain.count == Chain::kInline) {
        // Third slot for this hash: the whole chain moves to a spill
        // vector from the pool (or a new one) rather than allocating
        // per chain.
        if (freeSpills_.empty()) {
            chain.spillSlot = static_cast<std::uint32_t>(spills_.size());
            // dewrite-analyze: allow(hot-path-purity) spill-pool growth, only when a hash chain
            // exceeds its two inline slots (rare)
            spills_.emplace_back();
        } else {
            chain.spillSlot = freeSpills_.back();
            freeSpills_.pop_back();
        }
        // dewrite-analyze: allow(hot-path-purity) a recycled spill vector keeps its capacity
        spills_[chain.spillSlot].assign(chain.inlineSlots,
                                        chain.inlineSlots + Chain::kInline);
    }
    // dewrite-analyze: allow(hot-path-purity) spill-vector append, rare (chains > 2 entries)
    spills_[chain.spillSlot].push_back(id);
    ++chain.count;
}

void
HashStore::remove(Chain &chain, LineAddr slot)
{
    // Dying records sit near the chain's young end (its old end is
    // pinned records), so search newest-first.
    const ChainView slots = view(chain);
    std::size_t i = slots.size();
    do {
        if (i == 0)
            panic("hash store: live slot %llu missing from its chain",
                  static_cast<unsigned long long>(slot));
    } while (slots[--i] != slot);

    if (chain.count <= Chain::kInline) {
        for (std::size_t j = i + 1; j < chain.count; ++j)
            chain.inlineSlots[j - 1] = chain.inlineSlots[j];
        --chain.count;
        return;
    }
    std::vector<std::uint32_t> &spill = spills_[chain.spillSlot];
    spill.erase(spill.begin() + static_cast<std::ptrdiff_t>(i));
    if (--chain.count == Chain::kInline) {
        // Back to the inline buffer; the vector returns to the pool.
        std::copy(spill.begin(), spill.end(), chain.inlineSlots);
        spill.clear();
        // dewrite-analyze: allow(hot-path-purity) spill-slot recycling, rare (chain shrank below 3)
        freeSpills_.push_back(chain.spillSlot);
        chain.spillSlot = 0;
    }
}

void
HashStore::insert(std::uint64_t hash, LineAddr slot, LineRecord &record)
{
    if (record.live())
        panic("hash store: slot %llu already has a live record",
              static_cast<unsigned long long>(slot));
    record.reference_ = 1;
    record.strongValid_ = false;
    append(*chains_.tryEmplace(hash).first, slot);
    ++size_;
}

bool
HashStore::addReference(LineRecord &record)
{
    if (!record.live())
        panic("hash store: addReference on a slot with no live record");
    if (record.reference_ == kMaxReference) {
        saturationRefusals_.increment();
        return false;
    }
    ++record.reference_;
    return true;
}

bool
HashStore::dropReference(std::uint64_t hash, LineAddr slot,
                         LineRecord &record)
{
    if (!record.live())
        panic("hash store: dropReference on absent slot %llu",
              static_cast<unsigned long long>(slot));
    // A saturated count no longer tracks the true reference number,
    // so it is pinned: the record outlives its references rather
    // than risking premature reclamation.
    if (record.reference_ == kMaxReference)
        return false;
    if (--record.reference_ > 0)
        return false;
    record.strongValid_ = false;
    const std::size_t idx = chains_.findIndex(hash);
    if (idx == FlatMap<std::uint64_t, Chain>::npos)
        panic("hash store: dropReference on absent hash 0x%llx",
              static_cast<unsigned long long>(hash));
    Chain &chain = chains_.valueAt(idx);
    remove(chain, slot);
    --size_;
    if (chain.count == 0)
        chains_.eraseIndex(idx);
    return true;
}

std::uint8_t
HashStore::reference(std::uint64_t hash, LineAddr slot) const
{
    const LineRecord &record = lines_.at(slot);
    if (!record.live())
        return 0;
    const ChainView slots = lookup(hash);
    return std::find(slots.begin(), slots.end(), slot) == slots.end()
        ? 0
        : record.reference();
}

void
HashStore::setStrongFp(LineAddr slot, const StrongFp &fp)
{
    LineRecord &record = lines_.ref(slot);
    if (!record.live())
        panic("hash store: setStrongFp on slot %llu with no live record",
              static_cast<unsigned long long>(slot));
    strongFps_.ref(slot) = fp;
    record.strongValid_ = true;
}

const StrongFp *
HashStore::strongFpOf(LineAddr slot) const
{
    const LineRecord &record = lines_.at(slot);
    return record.live() && record.strongValid() ? strongFps_.find(slot)
                                                 : nullptr;
}

void
HashStore::restore(std::uint64_t hash, LineAddr slot,
                   std::uint64_t references)
{
    LineRecord &record = lines_.ref(slot);
    if (record.live())
        panic("hash store: duplicate restore of slot %llu",
              static_cast<unsigned long long>(slot));
    if (references == 0)
        panic("hash store: restore of slot %llu with no references",
              static_cast<unsigned long long>(slot));
    record.reference_ = static_cast<std::uint8_t>(
        std::min<std::uint64_t>(references, kMaxReference));
    record.strongValid_ = false;
    append(*chains_.tryEmplace(hash).first, slot);
    ++size_;
}

void
HashStore::clear()
{
    // dewrite-lint: allow(unsorted-iteration) every record is reset
    chains_.forEach([&](std::uint64_t, const Chain &chain) {
        for (const std::uint32_t slot : view(chain)) {
            LineRecord &record = lines_.ref(slot);
            record.reference_ = 0;
            record.strongValid_ = false;
        }
    });
    chains_.clear();
    spills_.clear();
    freeSpills_.clear();
    strongFps_ = PagedArray<StrongFp>();
    size_ = 0;
    saturationRefusals_.reset();
}

std::size_t
HashStore::collidingEntries() const
{
    std::size_t colliding = 0;
    // dewrite-lint: allow(unsorted-iteration) commutative sum
    chains_.forEach([&](std::uint64_t, const Chain &chain) {
        if (chain.count > 1)
            colliding += chain.count;
    });
    return colliding;
}

std::size_t
HashStore::maxChainLength() const
{
    std::size_t longest = 0;
    // dewrite-lint: allow(unsorted-iteration) commutative max
    chains_.forEach([&](std::uint64_t, const Chain &chain) {
        longest = std::max<std::size_t>(longest, chain.count);
    });
    return longest;
}

std::size_t
HashStore::spilledChains() const
{
    std::size_t spilled = 0;
    // dewrite-lint: allow(unsorted-iteration) commutative count
    chains_.forEach([&](std::uint64_t, const Chain &chain) {
        if (chain.count > Chain::kInline)
            ++spilled;
    });
    return spilled;
}

} // namespace dewrite
