/**
 * @file
 * Memory-side DRAM cache model for persistent memory "Memory-mode".
 *
 * In Memory-mode (2LM), the memory controller uses all of a socket's DRAM
 * as a direct-mapped, 64 B-granularity cache in front of the Optane
 * DIMMs; the OS sees only the PM capacity. This model reproduces that
 * organisation: a direct-mapped tag store sized by the DRAM capacity,
 * indexed by the cached PM physical address.
 */

#ifndef MCLOCK_MEM_DRAM_CACHE_HH_
#define MCLOCK_MEM_DRAM_CACHE_HH_

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "mem/memory_config.hh"

namespace mclock {

/** Outcome of a memory-mode access, with the memory-side latency. */
struct DramCacheResult
{
    bool hit;
    SimTime latency;  ///< total memory-side latency for this access
};

/** Direct-mapped DRAM cache in front of PM (Memory-mode / 2LM). */
class DramCache
{
  public:
    /**
     * @param dramBytes capacity of the DRAM acting as cache, cut into
     *                  kLineBytes blocks
     * @param cfg       timing parameters (DRAM and PM tier timings)
     */
    DramCache(std::size_t dramBytes, const MemoryConfig &cfg);

    /**
     * Access the PM physical address @p pa.
     *
     * Hit: served at DRAM latency. Miss: served at PM latency plus a fill
     * into DRAM; if the evicted block was dirty it is first written back
     * to PM. Fill/writeback transfer costs are charged at line
     * granularity using tier bandwidths.
     */
    DramCacheResult access(Paddr pa, bool isWrite);

    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double hitRate() const;

  private:
    struct Entry
    {
        std::uint64_t tag = kInvalidTag;
        bool dirty = false;
    };

    static constexpr std::uint64_t kInvalidTag = ~0ull;

    const MemoryConfig &cfg_;
    std::size_t numEntries_;
    std::vector<Entry> entries_;
    SimTime fillCost_;       ///< PM read -> DRAM write of one line
    SimTime writebackCost_;  ///< DRAM read -> PM write of one line
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

}  // namespace mclock

#endif  // MCLOCK_MEM_DRAM_CACHE_HH_
