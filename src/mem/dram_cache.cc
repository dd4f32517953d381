#include "mem/dram_cache.hh"

#include "base/logging.hh"

namespace mclock {

DramCache::DramCache(std::size_t dramBytes, const MemoryConfig &cfg)
    : cfg_(cfg), numEntries_(dramBytes / kLineBytes)
{
    MCLOCK_ASSERT(numEntries_ > 0 && (numEntries_ & (numEntries_ - 1)) == 0);
    entries_.assign(numEntries_, Entry{});
    // The near-memory cache sits in the fastest tier of the table and
    // fronts the slowest (far-memory) tier.
    const TierRank near = 0;
    const TierRank far = static_cast<TierRank>(cfg_.numTiers()) - 1;
    fillCost_ = cfg_.copyLatency(far, near, kLineBytes);
    writebackCost_ = cfg_.copyLatency(near, far, kLineBytes);
}

DramCacheResult
DramCache::access(Paddr pa, bool isWrite)
{
    const std::uint64_t block = pa >> kLineShift;
    const std::size_t idx = block & (numEntries_ - 1);
    Entry &e = entries_[idx];

    const TierTiming &near = cfg_.timing(0);
    const TierTiming &far =
        cfg_.timing(static_cast<TierRank>(cfg_.numTiers()) - 1);
    if (e.tag == block) {
        ++hits_;
        e.dirty = e.dirty || isWrite;
        const SimTime lat =
            isWrite ? near.storeLatency : near.loadLatency;
        return {true, lat};
    }

    ++misses_;
    // 2LM misses are serial: the near-memory tag probe in DRAM comes
    // before the far-memory access.
    SimTime lat = near.loadLatency +
                  (isWrite ? far.storeLatency : far.loadLatency);
    if (e.tag != kInvalidTag && e.dirty) {
        ++writebacks_;
        lat += writebackCost_;
    }
    lat += fillCost_;
    e.tag = block;
    e.dirty = isWrite;
    return {false, lat};
}

void
DramCache::reset()
{
    entries_.assign(entries_.size(), Entry{});
    hits_ = misses_ = writebacks_ = 0;
}

double
DramCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
}

}  // namespace mclock
