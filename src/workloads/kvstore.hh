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

#include "base/flat_map.hh"
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

/** Slab-allocated hash-table KV store issuing simulated accesses. */
class KvStore
{
  public:
    KvStore(sim::Simulator &sim, KvStoreConfig cfg = {});

    /** Insert or overwrite @p key with a value of @p valueBytes. */
    void put(std::uint64_t key, std::size_t valueBytes);

    /** Read @p key; returns false on miss. */
    bool get(std::uint64_t key);

    /** Read-modify-write (YCSB workload F). */
    bool readModifyWrite(std::uint64_t key);

    /** Delete @p key; the item's slab slot is recycled. */
    bool remove(std::uint64_t key);

    std::size_t itemCount() const { return index_.size(); }

    /** Total simulated bytes mmap'ed for slabs + hash table. */
    std::size_t footprintBytes() const { return footprint_; }

  private:
    struct Item
    {
        Vaddr addr;
        std::size_t bytes;  ///< header + value
    };

    /** Address of @p key's bucket slot in the hash-table array. */
    Vaddr bucketAddr(std::uint64_t key) const;

    /** Allocate a slab slot of at least @p bytes. */
    Vaddr allocItem(std::size_t bytes);

    sim::Simulator &sim_;
    KvStoreConfig cfg_;
    Vaddr buckets_;
    // Host-side index only (the simulated hash table is the bucket
    // array above); flat map because one find() per op dominated the
    // YCSB profile under std::unordered_map.
    FlatMap64<Item> index_;
    std::vector<Vaddr> freeSlots_;   ///< recycled item slots (single class)
    std::size_t freeSlotBytes_ = 0;  ///< size class of recycled slots
    Vaddr chunkCursor_ = 0;
    std::size_t chunkRemaining_ = 0;
    std::size_t footprint_ = 0;
};

}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_KVSTORE_HH_
