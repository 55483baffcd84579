/**
 * @file
 * FlatMap — the open-addressing hash map of the flat hot-path layer.
 *
 * Every simulated memory access walks several metadata tables; with the
 * crypto kernels reduced to tens of nanoseconds (PR 1), the node-based
 * std::unordered_map's pointer chase and per-node allocation became the
 * dominant cost between events. FlatMap keeps keys and values inline in
 * one contiguous slot array (power-of-two capacity, linear probing), so
 * a lookup is one mixed hash, one masked index, and a short sequential
 * scan — no allocation ever happens on the access path once reserve()d.
 *
 * Erase uses backward-shift deletion instead of tombstones: the probe
 * chain after the hole is compacted on the spot, so load factor — and
 * with it probe length — depends only on the live contents, never on
 * the erase history.
 *
 * Determinism contract: iteration (forEach) runs in slot order, which
 * is a pure function of the operation sequence — identical across runs,
 * machines, and thread counts (each simulated System owns its own
 * maps). User-visible output must not depend even on that; emit through
 * forEachSorted, which visits keys in ascending order.
 */

#ifndef DEWRITE_COMMON_FLAT_MAP_HH
#define DEWRITE_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/huge_pages.hh"

namespace dewrite {

/**
 * Finalizing mix for power-of-two masking: table indices must depend on
 * every input bit, or line addresses (low-entropy, sequential) would
 * cluster. splitmix64's finalizer is bijective and well distributed.
 */
inline std::uint64_t
flatMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Default hasher: integral keys go through the full-avalanche mix. */
template <typename K>
struct FlatHash
{
    std::uint64_t
    operator()(const K &key) const
    {
        static_assert(std::is_integral_v<K>,
                      "provide a hasher for non-integral keys");
        return flatMix64(static_cast<std::uint64_t>(key));
    }
};

template <typename K, typename V, typename Hasher = FlatHash<K>>
class FlatMap
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    FlatMap() = default;

    /** Pre-sizes for @p expected entries; never shrinks. */
    explicit FlatMap(std::size_t expected) { reserve(expected); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots in the backing array (testing / load inspection). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Ensures @p expected entries fit without another rehash. Growth
     * keeps the load factor at or below ~0.7.
     */
    void
    reserve(std::size_t expected)
    {
        std::size_t needed = kMinCapacity;
        while (needed * 7 < expected * 10)
            needed <<= 1;
        if (needed > slots_.size())
            rehash(needed);
    }

    const V *
    find(const K &key) const
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? nullptr : &slots_[idx].value;
    }

    V *
    find(const K &key)
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? nullptr : &slots_[idx].value;
    }

    bool contains(const K &key) const { return findIndex(key) != npos; }

    /** Slot index of @p key, or npos. Stable until the next mutation. */
    // dewrite-lint: hot
    std::size_t
    findIndex(const K &key) const
    {
        if (size_ == 0)
            return npos;
        std::size_t idx = hasher_(key) & mask_;
        while (slots_[idx].used) {
            if (slots_[idx].key == key)
                return idx;
            idx = (idx + 1) & mask_;
        }
        return npos;
    }

    const V &valueAt(std::size_t idx) const { return slots_[idx].value; }
    V &valueAt(std::size_t idx) { return slots_[idx].value; }
    const K &keyAt(std::size_t idx) const { return slots_[idx].key; }

    /** Inserts default-constructed V if absent (std::map semantics). */
    V &
    operator[](const K &key)
    {
        return *tryEmplace(key).first;
    }

    /**
     * Inserts (key, V(args...)) if absent.
     * @return the value slot and whether an insert happened.
     */
    template <typename... Args>
    std::pair<V *, bool>
    tryEmplace(const K &key, Args &&...args)
    {
        growIfNeeded();
        std::size_t idx = hasher_(key) & mask_;
        while (slots_[idx].used) {
            if (slots_[idx].key == key)
                return { &slots_[idx].value, false };
            idx = (idx + 1) & mask_;
        }
        slots_[idx].used = true;
        slots_[idx].key = key;
        slots_[idx].value = V(std::forward<Args>(args)...);
        ++size_;
        return { &slots_[idx].value, true };
    }

    /** Removes @p key; returns whether it was present. */
    bool
    erase(const K &key)
    {
        const std::size_t idx = findIndex(key);
        if (idx == npos)
            return false;
        eraseIndex(idx);
        return true;
    }

    /**
     * Removes the entry at @p idx (from findIndex) by backward-shift:
     * every displaced follower of the probe chain moves one hole
     * closer to its ideal slot, so no tombstone is left behind.
     */
    void
    eraseIndex(std::size_t idx)
    {
        std::size_t hole = idx;
        std::size_t next = (hole + 1) & mask_;
        while (slots_[next].used) {
            const std::size_t ideal = hasher_(slots_[next].key) & mask_;
            // The follower may move into the hole only if the hole lies
            // between its ideal slot and its current one (cyclically);
            // moving it before its ideal slot would break its chain.
            if (((next - ideal) & mask_) >= ((next - hole) & mask_)) {
                slots_[hole] = std::move(slots_[next]);
                hole = next;
            }
            next = (next + 1) & mask_;
        }
        slots_[hole].used = false;
        slots_[hole].key = K{};
        slots_[hole].value = V{};
        --size_;
    }

    /** Drops every entry; capacity is kept. */
    void
    clear()
    {
        for (Slot &slot : slots_)
            slot = Slot{};
        size_ = 0;
    }

    /**
     * Visits every (key, value) in slot order — deterministic for a
     * deterministic operation history, but not sorted. Hot-path safe
     * (no allocation). Do not emit user-visible output from this
     * order; use forEachSorted.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visit) const
    {
        for (const Slot &slot : slots_) {
            if (slot.used)
                visit(slot.key, slot.value);
        }
    }

    /** Visits every (key, value) in ascending key order. */
    template <typename Visitor>
    void
    forEachSorted(Visitor &&visit) const
    {
        // dewrite-analyze: allow(hot-path-purity) audit/report path only, never per-event
        std::vector<std::size_t> order;
        // dewrite-analyze: allow(hot-path-purity) audit/report path only, never per-event
        order.reserve(size_);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].used)
                // dewrite-analyze: allow(hot-path-purity) audit/report path only, never per-event
                order.push_back(i);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return slots_[a].key < slots_[b].key;
                  });
        for (std::size_t i : order)
            visit(slots_[i].key, slots_[i].value);
    }

  private:
    struct Slot
    {
        K key{};
        V value{};
        bool used = false;
    };

    static constexpr std::size_t kMinCapacity = 16;

    void
    growIfNeeded()
    {
        if (slots_.empty())
            rehash(kMinCapacity);
        else if ((size_ + 1) * 10 > slots_.size() * 7)
            rehash(slots_.size() * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        SlotVec old = std::move(slots_);
        slots_.assign(new_capacity, Slot{});
        mask_ = new_capacity - 1;
        for (Slot &slot : old) {
            if (!slot.used)
                continue;
            std::size_t idx = hasher_(slot.key) & mask_;
            while (slots_[idx].used)
                idx = (idx + 1) & mask_;
            slots_[idx] = std::move(slot);
        }
    }

    /**
     * Huge-page-backed once the table crosses ~1 MiB: large FlatMaps
     * (hash store, spill tables) are probed at mixed indices, so TLB
     * reach dominates their host cost. Small tables use the plain heap.
     */
    using SlotVec = std::vector<Slot, HugeAwareAllocator<Slot>>;

    SlotVec slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    Hasher hasher_{};
};

} // namespace dewrite

#endif // DEWRITE_COMMON_FLAT_MAP_HH
