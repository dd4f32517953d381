/**
 * @file
 * Integration tests: whole-stack runs of the paper's workloads on the
 * simulated machine under every policy, checking the qualitative
 * behaviours each figure relies on.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "base/units.hh"
#include "core/multiclock.hh"
#include "policies/factory.hh"
#include "policies/nimble.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace {

sim::MachineConfig
smallMachine()
{
    // Small enough for fast tests; footprint ratios still paper-like.
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 4_MiB}, {TierKind::Pmem, 16_MiB}};
    cfg.cache.sizeBytes = 256_KiB;
    cfg.cache.ways = 8;
    return cfg;
}

workloads::YcsbConfig
smallYcsb()
{
    workloads::YcsbConfig cfg;
    cfg.recordCount = 9000;   // ~9.7 MiB of values: 2.4x DRAM
    cfg.valueBytes = 1024;
    cfg.opsPerWorkload = 200000;
    return cfg;
}

/**
 * Daemon cadence scaled to the test runs' short simulated durations,
 * mirroring the benches' time-scaling (see bench/bench_common.hh).
 */
policies::PolicyOptions
scaledOptions(SimTime interval = 4_ms)
{
    policies::PolicyOptions opts;
    opts.scanInterval = interval;
    opts.poisonPagesPerSec = 8192.0 * 250.0;
    return opts;
}

/** Run load + workload A and return ops/s. */
double
runYcsbA(const std::string &policy, std::uint64_t *promotions = nullptr,
         std::uint64_t *reaccessed = nullptr)
{
    sim::Simulator sim(smallMachine());
    sim.setPolicy(policies::makePolicy(policy, scaledOptions()));
    workloads::YcsbDriver driver(sim, smallYcsb());
    driver.load();
    const auto result = driver.run(workloads::YcsbWorkload::A);
    if (promotions)
        *promotions = sim.vmstat().global(stats::VmItem::PgpromoteSuccess);
    if (reaccessed)
        *reaccessed = sim.metrics().totalReaccessed();
    return result.throughputOpsPerSec();
}

TEST(IntegrationYcsb, AllTieredPoliciesComplete)
{
    for (const auto &name : policies::tieredPolicyNames()) {
        const double tput = runYcsbA(name);
        EXPECT_GT(tput, 0.0) << name;
    }
}

TEST(IntegrationYcsb, MulticlockBeatsStatic)
{
    const double staticTput = runYcsbA("static");
    const double mclockTput = runYcsbA("multiclock");
    // Paper Fig. 5: +20..132% over static tiering on YCSB.
    EXPECT_GT(mclockTput, staticTput * 1.05);
}

TEST(IntegrationYcsb, MulticlockPromotes)
{
    std::uint64_t promotions = 0, reaccessed = 0;
    runYcsbA("multiclock", &promotions, &reaccessed);
    EXPECT_GT(promotions, 0u);
    EXPECT_GT(reaccessed, 0u);
}

TEST(IntegrationYcsb, NimblePromotesMoreButLessSelectively)
{
    // Paper Figs. 8-9: Nimble promotes more pages, yet a smaller
    // fraction of them get re-accessed from DRAM.
    std::uint64_t mcPromoted = 0, mcReaccessed = 0;
    std::uint64_t nbPromoted = 0, nbReaccessed = 0;
    runYcsbA("multiclock", &mcPromoted, &mcReaccessed);
    runYcsbA("nimble", &nbPromoted, &nbReaccessed);
    ASSERT_GT(mcPromoted, 0u);
    ASSERT_GT(nbPromoted, 0u);
    EXPECT_GT(nbPromoted, mcPromoted);
    const double mcRate = static_cast<double>(mcReaccessed) /
                          static_cast<double>(mcPromoted);
    const double nbRate = static_cast<double>(nbReaccessed) /
                          static_cast<double>(nbPromoted);
    EXPECT_GT(mcRate, nbRate);
}

TEST(IntegrationYcsb, MemoryModeCompletes)
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Pmem, 16_MiB}};
    cfg.cache.sizeBytes = 256_KiB;
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("memory-mode", 4_MiB));
    workloads::YcsbDriver driver(sim, smallYcsb());
    driver.load();
    const auto result = driver.run(workloads::YcsbWorkload::A);
    EXPECT_GT(result.throughputOpsPerSec(), 0.0);
}

TEST(IntegrationGapbs, PolicyComparisonOnPagerank)
{
    std::map<std::string, double> seconds;
    for (const std::string name : {"static", "multiclock"}) {
        sim::Simulator sim(smallMachine());
        sim.setPolicy(policies::makePolicy(name, scaledOptions()));
        workloads::gapbs::GapbsConfig cfg;
        cfg.scale = 12;
        cfg.degree = 16;
        cfg.trials = 2;
        cfg.prIters = 4;
        workloads::gapbs::GapbsDriver driver(sim, cfg);
        const auto r = driver.run(workloads::gapbs::Kernel::PR);
        seconds[name] = r.avgTrialSeconds();
        EXPECT_GT(r.avgTrialSeconds(), 0.0) << name;
        EXPECT_GT(r.checksum, 0u) << name;
    }
    // Dynamic tiering should not be slower than static by much; the
    // paper reports it equal or faster on GAPBS.
    EXPECT_LT(seconds["multiclock"], seconds["static"] * 1.10);
}

TEST(IntegrationGapbs, ChecksumsAgreeAcrossPolicies)
{
    // The tiering policy must never change computed results.
    std::uint64_t checksum = 0;
    bool first = true;
    for (const std::string name : {"static", "multiclock", "nimble"}) {
        sim::Simulator sim(smallMachine());
        sim.setPolicy(policies::makePolicy(name, scaledOptions()));
        workloads::gapbs::GapbsConfig cfg;
        cfg.scale = 10;
        cfg.degree = 8;
        cfg.trials = 1;
        workloads::gapbs::GapbsDriver driver(sim, cfg);
        const auto r = driver.run(workloads::gapbs::Kernel::BFS);
        if (first) {
            checksum = r.checksum;
            first = false;
        } else {
            EXPECT_EQ(r.checksum, checksum) << name;
        }
    }
}

TEST(IntegrationSensitivity, ShorterIntervalPromotesSooner)
{
    // Fig. 10 mechanism: a shorter kpromoted interval reacts faster.
    std::map<SimTime, std::uint64_t> promoted;
    for (SimTime interval : {4_ms, 200_ms}) {
        sim::Simulator sim(smallMachine());
        core::MultiClockConfig cfg;
        cfg.scanInterval = interval;
        sim.setPolicy(std::make_unique<core::MultiClockPolicy>(cfg));
        workloads::YcsbDriver driver(sim, smallYcsb());
        driver.load();
        driver.run(workloads::YcsbWorkload::A);
        promoted[interval] =
            sim.vmstat().global(stats::VmItem::PgpromoteSuccess);
    }
    EXPECT_GT(promoted[4_ms], promoted[200_ms]);
}

}  // namespace
}  // namespace mclock
