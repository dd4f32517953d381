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

const KvStore::Item *
KvStore::find(std::uint64_t key) const
{
    return key < items_.size() && items_[key].addr != 0 ? &items_[key]
                                                        : nullptr;
}

Vaddr
KvStore::allocItem(std::size_t bytes)
{
    // Recycle the most recently freed slot if the item fits in it, like
    // a memcached slab class: all items in one run have the same size.
    if (!freeSlots_.empty() && freeSlots_.back().bytes >= bytes) {
        const Vaddr addr = freeSlots_.back().addr;
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
    // addr 0 marks an absent key in items_.
    MCLOCK_ASSERT(addr != 0);
    chunkCursor_ += bytes;
    chunkRemaining_ -= bytes;
    return addr;
}

// Each operation queues its CPU time and at most three simulated
// accesses into one stream() call. The items_ lookup and slab
// allocation (plain host work plus time-free mmaps) run before the
// stream without changing anything the simulator observes.
void
KvStore::put(std::uint64_t key, std::size_t valueBytes)
{
    MCLOCK_ASSERT(key < kKeyLimit,
                  "KvStore keys are record numbers below 2^26");
    using MemOp = sim::Simulator::MemOp;
    MemOp ops[4];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::load(bucketAddr(key), sizeof(std::uint64_t));
    if (key >= items_.size())
        items_.resize(key + 1);
    Item &it = items_[key];
    if (it.addr != 0) {
        // Overwrite in place: read header, write value.
        ops[n++] = MemOp::load(
            it.addr,
            static_cast<std::uint32_t>(cfg_.itemHeaderBytes));
        ops[n++] = MemOp::store(
            it.addr + cfg_.itemHeaderBytes,
            static_cast<std::uint32_t>(valueBytes));
    } else {
        const std::size_t bytes = cfg_.itemHeaderBytes + valueBytes;
        MCLOCK_ASSERT(bytes <= UINT32_MAX);
        const Vaddr addr = allocItem(bytes);
        // Link into the chain, then write header + value.
        ops[n++] = MemOp::store(bucketAddr(key),
                                sizeof(std::uint64_t));
        ops[n++] = MemOp::store(addr,
                                static_cast<std::uint32_t>(bytes));
        it = Item{addr, static_cast<std::uint32_t>(bytes)};
        ++itemCount_;
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
    const Item *it = find(key);
    const bool hit = it != nullptr;
    if (hit) {
        // Read header (key comparison) then the value.
        ops[n++] = MemOp::load(it->addr, it->bytes);
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
    const Item *it = find(key);
    const bool hit = it != nullptr;
    if (hit) {
        ops[n++] = MemOp::load(it->addr, it->bytes);
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
    const Item *it = find(key);
    const bool hit = it != nullptr;
    if (hit) {
        ops[n++] = MemOp::store(
            it->addr,
            static_cast<std::uint32_t>(cfg_.itemHeaderBytes));  // unlink
        freeSlots_.push_back(*it);
        items_[key] = Item{};
        --itemCount_;
    }
    sim_.stream(ops, n);
    return hit;
}

}  // namespace workloads
}  // namespace mclock
