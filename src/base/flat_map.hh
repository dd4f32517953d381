/**
 * @file
 * Open-addressing hash map with 64-bit keys for host-side hot paths.
 *
 * std::unordered_map spends most of a lookup chasing the bucket's chain
 * pointer into a node allocated who-knows-where; profiles of the YCSB
 * workloads showed that one find() per operation accounting for ~15% of
 * total runtime. This map stores key/value pairs inline in a flat
 * power-of-two table with linear probing, so the common lookup is one
 * hash, one probe, done.
 *
 * Scope is deliberately narrow — exactly what the workload index needs:
 * insert-or-find, erase, size. No iteration (so unordered_map's
 * iteration-order differences cannot leak into simulated behaviour
 * when a caller switches over), no rehash stability, keys are plain
 * uint64.
 *
 * Deletion uses tombstones; the table rehashes (in place, same or
 * doubled capacity) when live + tombstone slots exceed 7/8 of capacity,
 * so probe chains stay short under churn.
 */

#ifndef MCLOCK_BASE_FLAT_MAP_HH_
#define MCLOCK_BASE_FLAT_MAP_HH_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/hash.hh"
#include "base/logging.hh"

namespace mclock {

/** Flat open-addressing uint64 -> V map (see file comment for scope). */
template <typename V>
class FlatMap64
{
  public:
    explicit FlatMap64(std::size_t initialCapacity = 64)
    {
        std::size_t cap = 16;
        while (cap < initialCapacity)
            cap *= 2;
        slots_.resize(cap);
        state_.assign(cap, kEmpty);
    }

    /** @return the value for @p key, or nullptr if absent. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (true) {
            const std::uint8_t st = state_[i];
            if (st == kFull && slots_[i].key == key)
                return &slots_[i].value;
            if (st == kEmpty)
                return nullptr;
            i = (i + 1) & mask;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap64 *>(this)->find(key);
    }

    /**
     * Insert @p value under @p key if absent.
     * @return {value slot, true if inserted, false if already present}
     */
    std::pair<V *, bool>
    emplace(std::uint64_t key, V value)
    {
        if ((live_ + tombstones_ + 1) * 8 > slots_.size() * 7)
            rehash(live_ * 8 > slots_.size() * 3 ? slots_.size() * 2
                                                 : slots_.size());
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        std::size_t insertAt = kNone;
        while (true) {
            const std::uint8_t st = state_[i];
            if (st == kFull && slots_[i].key == key)
                return {&slots_[i].value, false};
            if (st == kTombstone && insertAt == kNone)
                insertAt = i;
            if (st == kEmpty) {
                if (insertAt == kNone)
                    insertAt = i;
                break;
            }
            i = (i + 1) & mask;
        }
        if (state_[insertAt] == kTombstone)
            --tombstones_;
        state_[insertAt] = kFull;
        slots_[insertAt].key = key;
        slots_[insertAt].value = std::move(value);
        ++live_;
        return {&slots_[insertAt].value, true};
    }

    /** @return true if @p key was present and is now removed. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (true) {
            const std::uint8_t st = state_[i];
            if (st == kFull && slots_[i].key == key) {
                state_[i] = kTombstone;
                slots_[i].value = V();
                --live_;
                ++tombstones_;
                return true;
            }
            if (st == kEmpty)
                return false;
            i = (i + 1) & mask;
        }
    }

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

  private:
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::uint8_t kTombstone = 2;
    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
    };

    /** splitmix64 finalizer: full-avalanche mix of the raw key. */
    static std::size_t
    hash(std::uint64_t x)
    {
        return static_cast<std::size_t>(splitmix64(x));
    }

    void
    rehash(std::size_t newCap)
    {
        MCLOCK_ASSERT((newCap & (newCap - 1)) == 0 && newCap >= live_);
        std::vector<Slot> oldSlots(newCap);
        std::vector<std::uint8_t> oldState(newCap, kEmpty);
        oldSlots.swap(slots_);
        oldState.swap(state_);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = 0; s < oldSlots.size(); ++s) {
            if (oldState[s] != kFull)
                continue;
            std::size_t i = hash(oldSlots[s].key) & mask;
            while (state_[i] == kFull)
                i = (i + 1) & mask;
            state_[i] = kFull;
            slots_[i] = std::move(oldSlots[s]);
        }
        tombstones_ = 0;
    }

    std::vector<Slot> slots_;
    std::vector<std::uint8_t> state_;
    std::size_t live_ = 0;
    std::size_t tombstones_ = 0;
};

}  // namespace mclock

#endif  // MCLOCK_BASE_FLAT_MAP_HH_
