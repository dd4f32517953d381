#include "sim/machine.hh"

#include "base/units.hh"

namespace mclock {
namespace sim {

MachineConfig
paperMachineMemoryMode()
{
    MachineConfig cfg;
    // The OS sees only the PM capacity; DRAM is the memory-side cache.
    cfg.nodes = {
        {TierKind::Pmem, 256_MiB},
    };
    cfg.cache.sizeBytes = 4_MiB;
    return cfg;
}

MachineConfig
paperMachineThreeTier()
{
    MachineConfig cfg;
    // CXL-attached DRAM: ~2.5x the local-DRAM load latency (CXL.mem
    // round trip over the link), symmetric-ish bandwidth between local
    // DRAM and Optane. Stores post slightly faster than loads complete.
    cfg.mem.tiers = {
        {"DRAM", {80_ns, 80_ns, 12.0, 12.0}},
        {"CXL", {200_ns, 180_ns, 9.0, 9.0}},
        {"PMEM", {300_ns, 200_ns, 6.6, 2.3}},
    };
    cfg.nodes = {
        {0, 32_MiB},
        {1, 64_MiB},
        {2, 256_MiB},
    };
    cfg.cache.sizeBytes = 4_MiB;
    return cfg;
}

MachineConfig
benchMachine()
{
    MachineConfig cfg;
    cfg.nodes = {
        {TierKind::Dram, 16_MiB},
        {TierKind::Pmem, 64_MiB},
    };
    cfg.cache.sizeBytes = 1_MiB;
    return cfg;
}

MachineConfig
tinyTestMachine()
{
    MachineConfig cfg;
    cfg.nodes = {
        {TierKind::Dram, 2_MiB},
        {TierKind::Pmem, 8_MiB},
    };
    cfg.cache.enabled = true;
    cfg.cache.sizeBytes = 64_KiB;
    cfg.cache.ways = 4;
    return cfg;
}

}  // namespace sim
}  // namespace mclock
