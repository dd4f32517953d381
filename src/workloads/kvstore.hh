/**
 * @file
 * A Memcached-like in-memory key-value store over simulated memory.
 *
 * Memcached keeps its hash table and slab-allocated items in anonymous
 * (malloc'ed) memory that the kernel observes only through reference
 * bits. This store reproduces the page classes YCSB ops touch:
 *
 *  - the bucket array of the hash table (small, uniformly hot),
 *  - item headers + values in slab chunks (hot according to the request
 *    distribution over keys).
 *
 * Slab chunks are mmap'ed on demand, so the allocation order during the
 * load phase determines which records are born in DRAM and which spill
 * to the PM tier once DRAM fills — the setup the paper evaluates.
 */

#ifndef MCLOCK_WORKLOADS_KVSTORE_HH_
#define MCLOCK_WORKLOADS_KVSTORE_HH_

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "base/units.hh"

namespace mclock {

namespace sim {
class Simulator;
}

namespace workloads {

/** KV store tuning knobs. */
struct KvStoreConfig
{
    std::size_t hashBuckets = 1u << 15;
    std::size_t slabChunkBytes = 1_MiB;
    /** Per-item header (key, flags, LRU pointers — as in memcached). */
    std::size_t itemHeaderBytes = 56;
    /** CPU time per operation (parsing, hashing, protocol handling). */
    SimTime cpuPerOp = 300_ns;
    /**
     * Memory cgroup every region of this store (hash table and slabs)
     * is charged to. Default root: unaccounted, as before this knob.
     */
    MemCgroupId memcg = kRootMemcg;
};

/**
 * Slab-allocated hash-table KV store issuing simulated accesses.
 *
 * Keys are record numbers (YCSB's keyOf(recno) is recno; the shard and
 * tenant scenarios use 0..records), so the host-side index is a dense
 * table indexed by key, not a hash map. put() refuses a key at or past
 * kKeyLimit, so a sparse key dies loudly instead of allocating a table
 * of gigabytes.
 */
class KvStore
{
  public:
    /** Keys must lie below this (2^26 keys: a table of at most 1 GiB). */
    static constexpr std::uint64_t kKeyLimit = 1ull << 26;

    KvStore(sim::Simulator &sim, KvStoreConfig cfg = {});

    /**
     * Insert or overwrite @p key with a value of @p valueBytes. An
     * overwrite that fits the key's slot stays in place; a larger one
     * moves the item to a new slot and frees the old one.
     */
    void put(std::uint64_t key, std::size_t valueBytes);

    /** Read @p key; returns false on miss. */
    bool get(std::uint64_t key);

    /** Read-modify-write (YCSB workload F). */
    bool readModifyWrite(std::uint64_t key);

    /** Delete @p key; the item's slab slot is recycled. */
    bool remove(std::uint64_t key);

    std::size_t itemCount() const { return itemCount_; }

    /** Total simulated bytes mmap'ed for slabs + hash table. */
    std::size_t footprintBytes() const { return footprint_; }

  private:
    /** One key's slab slot; also a free-list entry. */
    struct Item
    {
        Vaddr addr = 0;           ///< 0: the key is absent
        std::uint32_t bytes = 0;  ///< header + value
    };
    static_assert(sizeof(Item) == 16);

    /** @p key's item, or nullptr when it is absent. */
    const Item *find(std::uint64_t key) const;

    /** Address of @p key's bucket slot in the hash-table array. */
    Vaddr bucketAddr(std::uint64_t key) const;

    /** Allocate a slab slot of at least @p bytes; never address 0. */
    Vaddr allocItem(std::size_t bytes);

    sim::Simulator &sim_;
    KvStoreConfig cfg_;
    Vaddr buckets_;
    // Host-side index only (the simulated hash table is the bucket
    // array above): items_[key], grown by put().
    std::vector<Item> items_;
    std::size_t itemCount_ = 0;
    std::vector<Item> freeSlots_;  ///< recycled slots and their sizes
    Vaddr chunkCursor_ = 0;
    std::size_t chunkRemaining_ = 0;
    std::size_t footprint_ = 0;
};

}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_KVSTORE_HH_
