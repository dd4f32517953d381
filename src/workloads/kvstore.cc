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

// Each operation charges its CPU time, then issues at most three
// simulated accesses. The items_ lookup and slab allocation (plain host
// work plus time-free mmaps) change nothing the simulator observes, so
// they sit wherever the code reads best.
void
KvStore::put(std::uint64_t key, std::size_t valueBytes)
{
    MCLOCK_ASSERT(key < kKeyLimit,
                  "KvStore keys are record numbers below 2^26");
    const std::size_t bytes = cfg_.itemHeaderBytes + valueBytes;
    MCLOCK_ASSERT(bytes <= UINT32_MAX);
    sim_.compute(cfg_.cpuPerOp);
    const Vaddr bucket = bucketAddr(key);
    sim_.read(bucket, sizeof(std::uint64_t));
    if (key >= items_.size())
        items_.resize(key + 1);
    Item &it = items_[key];
    if (it.addr != 0 && bytes <= it.bytes) {
        // Overwrite in place: read header, write value.
        sim_.read(it.addr, cfg_.itemHeaderBytes);
        sim_.write(it.addr + cfg_.itemHeaderBytes, valueBytes);
        return;
    }
    // A new key, or a value that outgrew its slot. Allocate before
    // freeing the old slot, so an earlier freed slot that fits can be
    // recycled but the too-small old one cannot.
    const Vaddr addr = allocItem(bytes);
    if (it.addr != 0)
        freeSlots_.push_back(it);
    else
        ++itemCount_;
    it = Item{addr, static_cast<std::uint32_t>(bytes)};
    // Link into the chain, then write header + value.
    sim_.write(bucket, sizeof(std::uint64_t));
    sim_.write(addr, bytes);
}

bool
KvStore::get(std::uint64_t key)
{
    sim_.compute(cfg_.cpuPerOp);
    sim_.read(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = find(key);
    if (!it)
        return false;
    // Read header (key comparison) then the value.
    sim_.read(it->addr, it->bytes);
    return true;
}

bool
KvStore::readModifyWrite(std::uint64_t key)
{
    sim_.compute(cfg_.cpuPerOp);
    sim_.read(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = find(key);
    if (!it)
        return false;
    sim_.read(it->addr, it->bytes);
    sim_.write(it->addr + cfg_.itemHeaderBytes,
               it->bytes - cfg_.itemHeaderBytes);
    return true;
}

bool
KvStore::remove(std::uint64_t key)
{
    sim_.compute(cfg_.cpuPerOp);
    sim_.write(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = find(key);
    if (!it)
        return false;
    sim_.write(it->addr, cfg_.itemHeaderBytes);  // unlink
    freeSlots_.push_back(*it);
    items_[key] = Item{};
    --itemCount_;
    return true;
}

}  // namespace workloads
}  // namespace mclock
