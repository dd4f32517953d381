/**
 * @file
 * Shared machine/workload profiles for the figure-reproduction
 * experiments, in the library so the harness, the golden regression
 * tests and the repository benchmark all draw from one definition.
 *
 * Scaling discipline (documented in DESIGN.md / EXPERIMENTS.md):
 *  - capacities are scaled ~1000x below the paper's testbed, keeping
 *    the footprint:DRAM ratio of each experiment;
 *  - daemon cadence and the 20 s metric windows are scaled by
 *    kTimeScale = 250 so the (promotion lag : hot-set drift) ratio
 *    matches the paper's runs;
 *  - reported intervals/windows are labelled with their *paper-scale*
 *    values (e.g. "1 s" means the scaled 4 ms cadence).
 *
 * The golden* variants are smaller still: pinned-seed regression
 * profiles sized to finish in well under a second per simulation while
 * exercising the same transitions (promote-list selection, demotion
 * under pressure, LLC filtering).
 */

#ifndef MCLOCK_HARNESS_PROFILES_HH_
#define MCLOCK_HARNESS_PROFILES_HH_

#include <cstdint>

#include "base/units.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

/** Cadence/window scale relative to the paper (see file comment). */
constexpr double kTimeScale = 250.0;

/** Paper's 1 s kpromoted interval, scaled. */
constexpr SimTime kScanInterval = 4_ms;

/** Paper's 20 s metric window, scaled. */
constexpr SimTime kMetricsWindow = 80_ms;

/** Convert a paper-scale time to simulation cadence. */
inline SimTime
scaledTime(SimTime paperTime)
{
    const auto t = static_cast<SimTime>(
        static_cast<double>(paperTime) / kTimeScale);
    return t == 0 ? 1 : t;
}

/** Machine for the YCSB experiments (Figs. 5, 8, 9, 10). */
inline sim::MachineConfig
ycsbMachine()
{
    sim::MachineConfig cfg;
    // PM sized with headroom for workload D's dataset growth (the
    // paper's 512 GB PM dwarfed D's inserts; 64 MiB would overflow).
    cfg.nodes = {{TierKind::Dram, 16_MiB}, {TierKind::Pmem, 96_MiB}};
    // Scaled with the footprint: the testbed's LLC covers ~0.01% of the
    // workload; anything bigger here would absorb the whole hot band.
    cfg.cache.sizeBytes = 64_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = kMetricsWindow;
    return cfg;
}

/** Machine for the GAPBS experiments (Fig. 6). */
inline sim::MachineConfig
gapbsMachine()
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 8_MiB}, {TierKind::Pmem, 32_MiB}};
    cfg.cache.sizeBytes = 256_KiB;
    cfg.metricsWindow = kMetricsWindow;
    return cfg;
}

/** Tiered machine for the Memory-mode comparison (Fig. 7). */
inline sim::MachineConfig
memModeTieredMachine()
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 16_MiB}, {TierKind::Pmem, 96_MiB}};
    cfg.cache.sizeBytes = 1_MiB;
    cfg.metricsWindow = kMetricsWindow;
    return cfg;
}

/** PM-only machine for Memory-mode itself (DRAM is the cache). */
inline sim::MachineConfig
memModePmMachine()
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Pmem, 96_MiB}};
    cfg.cache.sizeBytes = 1_MiB;
    cfg.metricsWindow = kMetricsWindow;
    return cfg;
}

/** Policy options with the scaled cadence (paper defaults otherwise). */
inline policies::PolicyOptions
benchPolicyOptions(SimTime interval = kScanInterval)
{
    policies::PolicyOptions opts;
    opts.scanInterval = interval;
    // Scan budget sized so a full CLOCK pass over the PM lists takes a
    // few wakes (the paper's 1024 at testbed scale covers a similarly
    // small fraction of much longer lists per wake).
    opts.nrScan = 2048;
    // AutoNUMA poisoning budget: one full pass over the footprint every
    // ~2.5 simulated seconds (trap overhead moderate; AT's losses come
    // from fault-path migration decisions, as on the testbed).
    opts.poisonPagesPerSec = 131072.0;
    return opts;
}

/** YCSB configuration for Fig. 5/8/9/10: footprint ~2.5x DRAM. */
inline workloads::YcsbConfig
ycsbBenchConfig(std::uint64_t ops)
{
    workloads::YcsbConfig cfg;
    // ~38 MiB of items vs 16 MiB DRAM; 1 KB records (the YCSB default)
    // give ~4 records per page, preserving page-level access skew.
    cfg.recordCount = 36000;
    cfg.valueBytes = 1024;
    cfg.opsPerWorkload = ops;
    return cfg;
}

/** GAPBS configuration for Fig. 6: footprint > DRAM. */
inline workloads::gapbs::GapbsConfig
gapbsBenchConfig()
{
    workloads::gapbs::GapbsConfig cfg;
    cfg.scale = 16;    // 64k vertices
    cfg.degree = 24;   // ~1.5M undirected edges -> ~15 MiB CSR
    cfg.trials = 2;
    cfg.prIters = 8;
    cfg.bcSources = 2;
    cfg.tcScale = 13;
    cfg.tcDegree = 10;
    return cfg;
}

// --- Golden (regression) profiles ---------------------------------------

/**
 * Golden YCSB machine: same 1:4-ish tier shape, ~4x smaller, with a
 * short metrics window so the windowed figures still produce several
 * windows at regression scale.
 */
inline sim::MachineConfig
goldenYcsbMachine()
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 4_MiB}, {TierKind::Pmem, 24_MiB}};
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = 20_ms;
    return cfg;
}

/** Golden YCSB workload: footprint ~2.4x the golden DRAM. */
inline workloads::YcsbConfig
goldenYcsbConfig(std::uint64_t ops)
{
    workloads::YcsbConfig cfg;
    cfg.recordCount = 9600;   // ~10 MiB vs 4 MiB DRAM
    cfg.valueBytes = 1024;
    cfg.opsPerWorkload = ops;
    return cfg;
}

/** Golden GAPBS machine. */
inline sim::MachineConfig
goldenGapbsMachine()
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 2_MiB}, {TierKind::Pmem, 8_MiB}};
    cfg.cache.sizeBytes = 64_KiB;
    cfg.metricsWindow = 20_ms;
    return cfg;
}

/** Golden GAPBS graph: ~4k vertices, one trial. */
inline workloads::gapbs::GapbsConfig
goldenGapbsConfig()
{
    workloads::gapbs::GapbsConfig cfg;
    cfg.scale = 12;
    cfg.degree = 12;
    cfg.trials = 1;
    cfg.prIters = 4;
    cfg.bcSources = 1;
    cfg.tcScale = 10;
    cfg.tcDegree = 8;
    return cfg;
}

// --- Three-tier (DRAM/CXL/PM) profiles ----------------------------------

/**
 * YCSB machine for the tier3_* scenarios: the three-tier timing table
 * from sim::paperMachineThreeTier() with node capacities sized so the
 * YCSB footprint overflows DRAM+CXL into PM (accesses reach all three
 * tiers).
 */
inline sim::MachineConfig
tier3YcsbMachine()
{
    sim::MachineConfig cfg = sim::paperMachineThreeTier();
    cfg.nodes = {{0, 8_MiB}, {1, 16_MiB}, {2, 96_MiB}};
    cfg.cache.sizeBytes = 64_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = kMetricsWindow;
    return cfg;
}

/** GAPBS machine for tier3_pagerank. */
inline sim::MachineConfig
tier3GapbsMachine()
{
    sim::MachineConfig cfg = sim::paperMachineThreeTier();
    cfg.nodes = {{0, 4_MiB}, {1, 8_MiB}, {2, 32_MiB}};
    cfg.cache.sizeBytes = 256_KiB;
    cfg.metricsWindow = kMetricsWindow;
    return cfg;
}

/** Golden three-tier YCSB machine (~4x smaller, short windows). */
inline sim::MachineConfig
goldenTier3YcsbMachine()
{
    sim::MachineConfig cfg = sim::paperMachineThreeTier();
    cfg.nodes = {{0, 2_MiB}, {1, 4_MiB}, {2, 24_MiB}};
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = 20_ms;
    return cfg;
}

/**
 * Golden three-tier GAPBS machine. DRAM+CXL deliberately hold less
 * than the golden graph (~0.6 MiB CSR + properties) so PageRank
 * exercises all three tiers even at regression scale.
 */
inline sim::MachineConfig
goldenTier3GapbsMachine()
{
    sim::MachineConfig cfg = sim::paperMachineThreeTier();
    cfg.nodes = {{0, 128_KiB}, {1, 256_KiB}, {2, 12_MiB}};
    cfg.cache.sizeBytes = 64_KiB;
    cfg.metricsWindow = 20_ms;
    return cfg;
}

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_PROFILES_HH_
