/**
 * @file
 * Timing and capacity parameters of the simulated hybrid-memory machine.
 *
 * The defaults model the paper's testbeds: DDR4-2666 DRAM DIMMs and Intel
 * Optane DC Persistent Memory DIMMs used in App-Direct (devdax/KMEM-DAX)
 * mode, with latencies taken from published Optane characterisation
 * studies. Capacities are scaled down ~1000x so experiments complete in
 * seconds while keeping the footprint:DRAM ratios of the paper intact.
 */

#ifndef MCLOCK_MEM_MEMORY_CONFIG_HH_
#define MCLOCK_MEM_MEMORY_CONFIG_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "base/units.hh"

namespace mclock {

/**
 * The line size of every cache the machine models (the LLC and the
 * Memory-mode DRAM cache) and of the sequential first-touch sweep.
 */
constexpr unsigned kLineShift = 6;
constexpr std::size_t kLineBytes = std::size_t{1} << kLineShift;

/** Per-tier access timing. */
struct TierTiming
{
    SimTime loadLatency;   ///< ns for a 64 B load reaching this tier.
    SimTime storeLatency;  ///< ns for a 64 B store reaching this tier.
    /** Sustained copy bandwidth in bytes/ns (== GB/s) for reads. */
    double readBandwidth;
    /** Sustained copy bandwidth in bytes/ns (== GB/s) for writes. */
    double writeBandwidth;

    bool operator==(const TierTiming &) const = default;
};

/** One entry of the rank-ordered tier table. */
struct TierDesc
{
    std::string name;   ///< Human-readable tier name ("DRAM", "CXL", ...).
    TierTiming timing;  ///< Access timing for this tier.

    bool operator==(const TierDesc &) const = default;
};

/** Full timing model for the machine. */
struct MemoryConfig
{
    /**
     * Rank-ordered tier table; the vector index is the tier rank and
     * rank 0 is the fastest tier. The default reproduces the paper's
     * two-tier testbed: DDR4 DRAM at rank 0 and Optane DCPMM at rank 1
     * (~300 ns random load; stores complete into the ADR buffer faster
     * but sustained write bandwidth is much lower).
     */
    std::vector<TierDesc> tiers{
        {"DRAM", {80_ns, 80_ns, 12.0, 12.0}},
        {"PMEM", {300_ns, 200_ns, 6.6, 2.3}},
    };

    /** Cost of a minor page fault (first touch), excluding zero-fill. */
    SimTime minorFaultLatency = 1500_ns;
    /** Cost of a NUMA-hint software page fault (AutoTiering tracking). */
    SimTime hintFaultLatency = 1800_ns;
    /** Fixed per-page migration overhead: unmap, TLB shootdown, remap. */
    SimTime migrationFixedCost = 2500_ns;
    /** Cost of swapping a page out to / in from block storage. */
    SimTime swapLatency = 50_us;
    /** Daemon cost to scan one page (rmap walk + reference bit ops). */
    SimTime scanPerPageCost = 120_ns;
    /**
     * Multiplier applied to migrations performed synchronously on the
     * application's fault path (AutoTiering promotes in the hint-fault
     * handler). It models the page-lock stalls and TLB-shootdown storms
     * such migrations impose on the other application threads of the
     * paper's 32-core testbed, which a single-threaded driver cannot
     * observe directly.
     */
    double faultPathMigrationMultiplier = 4.0;
    /**
     * Fraction of background daemon work (scans, migrations performed by
     * kpromoted/kswapd on their own core) charged to application time to
     * model memory-bandwidth and lock contention. Work performed inline
     * on the application's fault path is always charged in full.
     */
    double backgroundInterference = 0.3;

    /** Number of tiers in the table. */
    std::size_t numTiers() const { return tiers.size(); }

    /** Full descriptor of the tier at @p rank. */
    const TierDesc &tier(TierRank rank) const
    {
        return tiers[static_cast<std::size_t>(rank)];
    }

    /** Human-readable name of the tier at @p rank. */
    const char *tierName(TierRank rank) const
    {
        return tier(rank).name.c_str();
    }

    const TierTiming &timing(TierRank rank) const
    {
        return tier(rank).timing;
    }

    /**
     * Latency to copy @p bytes from tier @p src to tier @p dst: the
     * transfer is paced by the slower of the source read and the
     * destination write bandwidth.
     */
    SimTime copyLatency(TierRank src, TierRank dst, std::size_t bytes) const;

    /** Total cost of migrating one page from @p src to @p dst. */
    SimTime pageMigrationCost(TierRank src, TierRank dst) const;

    bool operator==(const MemoryConfig &) const = default;
};

/** LLC filter-cache parameters; models the on-chip cache hierarchy. */
struct CacheConfig
{
    bool enabled = true;
    std::size_t sizeBytes = 8_MiB;
    unsigned ways = 16;
    SimTime hitLatency = 5_ns;

    bool operator==(const CacheConfig &) const = default;
};

}  // namespace mclock

#endif  // MCLOCK_MEM_MEMORY_CONFIG_HH_
