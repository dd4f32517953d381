/**
 * @file
 * Machine configurations: memory timing + node layout + cache + seed.
 *
 * Presets model the paper's two testbeds, scaled ~1000x down in capacity
 * (the footprint:DRAM ratios of each experiment are preserved, which is
 * what determines tiering behaviour).
 */

#ifndef MCLOCK_SIM_MACHINE_HH_
#define MCLOCK_SIM_MACHINE_HH_

#include <cstdint>
#include <vector>

#include "mem/memory_config.hh"
#include "sim/fault_injector.hh"
#include "sim/memory_system.hh"

namespace mclock {
namespace sim {

/** Tracepoint ring capacity of every host, in events. */
constexpr std::size_t kTraceCapacity = 4096;

/** vmstat sampler period in simulated ns (paper-scale 1 s, scaled). */
constexpr SimTime kSamplerInterval = 4'000'000ull;

/** Observability knobs for one simulated host (see src/stats/). */
struct StatsConfig
{
    /** Register the periodic vmstat sampler daemon. */
    bool sampler = false;

    bool operator==(const StatsConfig &) const = default;
};

/** Everything needed to instantiate a Simulator. */
struct MachineConfig
{
    MemoryConfig mem;
    CacheConfig cache;
    std::vector<NodeSpec> nodes;
    std::uint64_t seed = 42;
    /** Swap slots available for last-resort eviction (0 = unlimited). */
    std::size_t swapPages = 0;
    /** Metrics window length (the paper reports 20 s windows). */
    SimTime metricsWindow = 20'000'000'000ull;
    /** Counter/tracepoint/sampler configuration. */
    StatsConfig stats;
    /** Migration fault injection (disabled by default). */
    FaultConfig faults;

    std::size_t
    tierBytes(TierRank rank) const
    {
        std::size_t total = 0;
        for (const auto &n : nodes) {
            if (n.tier == rank)
                total += n.bytes;
        }
        return total;
    }

    bool operator==(const MachineConfig &) const = default;
};

/**
 * Memory-mode platform: the OS sees only PM nodes; the DRAM acts as a
 * memory-side cache managed by MemoryModePolicy (pass the DRAM size to
 * the policy, not to the node list).
 */
MachineConfig paperMachineMemoryMode();

/**
 * Three-tier platform: local DRAM, CXL-attached DRAM (~2.5x the local
 * load latency, intermediate bandwidth), and PM, each as one node. The
 * tier table replaces the default two-tier one; rank 0 = DRAM,
 * rank 1 = CXL, rank 2 = PM.
 */
MachineConfig paperMachineThreeTier();

/**
 * Small machine used by the default bench runs: 16 MiB DRAM + 64 MiB PM
 * with a 1 MiB LLC, the ~1:4 DRAM:PM ratio of the paper's Memory-mode
 * testbed (376 GB : 1.5 TB).
 */
MachineConfig benchMachine();

/** Tiny machine for unit tests: 2 MiB DRAM + 8 MiB PM, small LLC. */
MachineConfig tinyTestMachine();

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_MACHINE_HH_
