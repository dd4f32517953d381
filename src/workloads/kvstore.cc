#include "workloads/kvstore.hh"

#include "base/logging.hh"
#include "sim/simulator.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace workloads {

KvStore::KvStore(sim::Simulator &sim, KvStoreConfig cfg)
    : sim_(sim), cfg_(cfg)
{
    const std::size_t bytes = cfg_.hashBuckets * sizeof(std::uint64_t);
    buckets_ = sim_.mmap(bytes, /*anon=*/true, "kv-hashtable",
                         cfg_.memcg);
    footprint_ += bytes;
}

Vaddr
KvStore::bucketAddr(std::uint64_t key) const
{
    const std::uint64_t h = fnv1a64(key) % cfg_.hashBuckets;
    return buckets_ + h * sizeof(std::uint64_t);
}

Vaddr
KvStore::allocItem(std::size_t bytes)
{
    // Single size-class recycling, like a memcached slab class: all
    // items in one run have the same value size.
    if (!freeSlots_.empty() && freeSlotBytes_ >= bytes) {
        const Vaddr addr = freeSlots_.back();
        freeSlots_.pop_back();
        return addr;
    }
    if (chunkRemaining_ < bytes) {
        const std::size_t chunk =
            std::max(cfg_.slabChunkBytes, bytes);
        chunkCursor_ = sim_.mmap(chunk, /*anon=*/true, "kv-slab",
                                 cfg_.memcg);
        chunkRemaining_ = chunk;
        footprint_ += chunk;
    }
    const Vaddr addr = chunkCursor_;
    chunkCursor_ += bytes;
    chunkRemaining_ -= bytes;
    return addr;
}

// Each operation queues its CPU time and at most three simulated
// accesses into one stream() call. The index_ lookup and slab
// allocation (plain host work plus time-free mmaps) run before the
// stream without changing anything the simulator observes.
void
KvStore::put(std::uint64_t key, std::size_t valueBytes)
{
    using MemOp = sim::Simulator::MemOp;
    MemOp ops[4];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::load(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    if (it) {
        // Overwrite in place: read header, write value.
        ops[n++] = MemOp::load(
            it->addr,
            static_cast<std::uint32_t>(cfg_.itemHeaderBytes));
        ops[n++] = MemOp::store(
            it->addr + cfg_.itemHeaderBytes,
            static_cast<std::uint32_t>(valueBytes));
    } else {
        const std::size_t bytes = cfg_.itemHeaderBytes + valueBytes;
        const Vaddr addr = allocItem(bytes);
        freeSlotBytes_ = std::max(freeSlotBytes_, bytes);
        // Link into the chain, then write header + value.
        ops[n++] = MemOp::store(bucketAddr(key),
                                sizeof(std::uint64_t));
        ops[n++] = MemOp::store(addr,
                                static_cast<std::uint32_t>(bytes));
        index_.emplace(key, Item{addr, bytes});
    }
    sim_.stream(ops, n);
}

bool
KvStore::get(std::uint64_t key)
{
    using MemOp = sim::Simulator::MemOp;
    MemOp ops[3];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::load(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    const bool hit = it != nullptr;
    if (hit) {
        // Read header (key comparison) then the value.
        ops[n++] = MemOp::load(
            it->addr,
            static_cast<std::uint32_t>(it->bytes));
    }
    sim_.stream(ops, n);
    return hit;
}

bool
KvStore::readModifyWrite(std::uint64_t key)
{
    using MemOp = sim::Simulator::MemOp;
    MemOp ops[4];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::load(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    const bool hit = it != nullptr;
    if (hit) {
        ops[n++] = MemOp::load(
            it->addr,
            static_cast<std::uint32_t>(it->bytes));
        ops[n++] = MemOp::store(
            it->addr + cfg_.itemHeaderBytes,
            static_cast<std::uint32_t>(it->bytes -
                                       cfg_.itemHeaderBytes));
    }
    sim_.stream(ops, n);
    return hit;
}

bool
KvStore::remove(std::uint64_t key)
{
    using MemOp = sim::Simulator::MemOp;
    MemOp ops[3];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::store(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    const bool hit = it != nullptr;
    if (hit) {
        ops[n++] = MemOp::store(
            it->addr,
            static_cast<std::uint32_t>(cfg_.itemHeaderBytes));  // unlink
        freeSlots_.push_back(it->addr);
        index_.erase(key);
    }
    sim_.stream(ops, n);
    return hit;
}

}  // namespace workloads
}  // namespace mclock
