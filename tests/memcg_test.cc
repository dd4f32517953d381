/**
 * @file
 * Memory-cgroup (multi-tenant isolation) tests: charge accounting
 * through migration, rollback, and teardown; hard-cap reclaim and
 * allocation fallback; deficit-round-robin promotion quotas; and the
 * QoS outcomes of the tenant_* harness family. The whole suite also
 * runs under the debug-vm and tsan CI presets.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/units.hh"
#include "harness/invariants.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "stats/vmstat.hh"
#include "vm/memcg.hh"
#include "vm/page.hh"

#include "harness_fixtures.hh"

using namespace mclock;
using namespace mclock::sim;

namespace {

// --- Accounting units ----------------------------------------------------

TEST(MemCgroupTest, LimitsDefaultToUnlimitedAndUnprotected)
{
    MemCgroup cg(1, "t", {});
    EXPECT_EQ(cg.maxPages(0), SIZE_MAX);
    EXPECT_EQ(cg.lowPages(0), 0u);
    EXPECT_TRUE(cg.withinMax(0));
    // An empty group sits at its (zero) floor: protected until it
    // holds anything, which is exactly the memory.low semantic.
    EXPECT_TRUE(cg.lowProtected(0));
    cg.charge(0);
    EXPECT_FALSE(cg.lowProtected(0));
    EXPECT_TRUE(cg.hasPromoteCredit());  // quantum 0: unmetered
    EXPECT_TRUE(cg.consumePromoteCredit());
}

TEST(MemCgroupTest, ChargesMoveAcrossTiersExactly)
{
    MemCgroupManager mgr;
    const MemCgroupId id = mgr.create("tenant");
    EXPECT_EQ(id, 1u);
    EXPECT_TRUE(mgr.active());

    mgr.charge(id, 0);
    mgr.charge(id, 0);
    mgr.transfer(id, 0, 1);
    const MemCgroup *cg = mgr.find(id);
    ASSERT_NE(cg, nullptr);
    EXPECT_EQ(cg->charged(0), 1u);
    EXPECT_EQ(cg->charged(1), 1u);
    EXPECT_EQ(cg->chargedTotal(), 2u);
    mgr.uncharge(id, 0);
    mgr.uncharge(id, 1);
    EXPECT_EQ(cg->chargedTotal(), 0u);

    // The root id short-circuits every hook.
    mgr.charge(kRootMemcg, 0);
    mgr.uncharge(kRootMemcg, 0);
    mgr.transfer(kRootMemcg, 0, 1);
    EXPECT_TRUE(mgr.withinMax(kRootMemcg, 0));
    EXPECT_TRUE(mgr.hasPromoteCredit(kRootMemcg));
    EXPECT_EQ(mgr.find(kRootMemcg), nullptr);
}

TEST(MemCgroupTest, QuotaRefillCarriesAtMostOneQuantum)
{
    MemCgroupLimits limits;
    limits.promoteQuantum = 4;
    MemCgroup cg(1, "t", limits);
    EXPECT_FALSE(cg.hasPromoteCredit());  // no epoch yet

    cg.refillPromoteDeficit();
    EXPECT_EQ(cg.promoteDeficit(), 4u);
    ASSERT_TRUE(cg.consumePromoteCredit());
    cg.refillPromoteDeficit();
    EXPECT_EQ(cg.promoteDeficit(), 7u);  // 3 carried + 4 new

    // Unused credit saturates at two quanta: a quiet epoch cannot bank
    // an unbounded promotion burst.
    cg.refillPromoteDeficit();
    cg.refillPromoteDeficit();
    EXPECT_EQ(cg.promoteDeficit(), 8u);

    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(cg.consumePromoteCredit());
    EXPECT_FALSE(cg.consumePromoteCredit());
    EXPECT_FALSE(cg.hasPromoteCredit());
}

TEST(MemCgroupTest, P99IsExactOnTheDiscreteHistogram)
{
    MemCgroup cg(1, "t", {});
    EXPECT_EQ(cg.p99Latency(), 0u);
    for (int i = 0; i < 99; ++i)
        cg.recordLatency(10);
    cg.recordLatency(300);
    // 100 accesses: the 99th falls on the 10ns bucket exactly.
    EXPECT_EQ(cg.p99Latency(), 10u);
    cg.recordLatency(300);
    // 101 accesses: need ceil(99.99) = 100 > the 99 cheap ones.
    EXPECT_EQ(cg.p99Latency(), 300u);
    EXPECT_EQ(cg.accesses(), 101u);
}

// --- Simulator integration -----------------------------------------------

MachineConfig
twoTierMachine(std::size_t dram, std::size_t pm)
{
    MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, dram}, {TierKind::Pmem, pm}};
    return cfg;
}

/** The full invariant sweep must come back empty. */
void
expectClean(Simulator &sim)
{
    for (const auto &v : harness::collectViolations(sim))
        ADD_FAILURE() << v;
}

/**
 * Counter sweep only (includes memcg charge-vs-walk conservation and
 * swap-slot conservation). Used mid-test while pages sit isolated off
 * the LRU after direct demotePage()/promotePage() driving — the
 * structural sweep requires quiescent lists.
 */
void
expectCountersClean(Simulator &sim)
{
    for (const auto &v : harness::collectCounterViolations(sim))
        ADD_FAILURE() << v;
}

TEST(MemCgroupSimTest, ChargesFollowPlacementMigrationAndTeardown)
{
    Simulator sim(twoTierMachine(1_MiB, 4_MiB));
    sim.setPolicy(policies::makePolicy("static", {}));
    const MemCgroupId id = sim.memcg().create("tenant");

    const std::size_t pages = 64;
    const Vaddr base = sim.mmap(pages * kPageSize, true, "heap", id);
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(base + i * kPageSize);

    MemCgroup *cg = sim.memcg().find(id);
    ASSERT_NE(cg, nullptr);
    EXPECT_EQ(cg->chargedTotal(), pages);
    EXPECT_EQ(cg->charged(0), pages);  // all born in DRAM
    expectClean(sim);

    // Demotion transfers the charge, never duplicates or drops it.
    Page *pg = sim.space().lookup(base >> kPageShift);
    ASSERT_NE(pg, nullptr);
    sim.policy().onPageFreed(pg);  // isolate off the LRU
    ASSERT_TRUE(sim.demotePage(pg, Simulator::ChargeMode::Background));
    EXPECT_EQ(cg->charged(0), pages - 1);
    EXPECT_EQ(cg->charged(1), 1u);
    EXPECT_EQ(cg->chargedTotal(), pages);
    expectCountersClean(sim);

    // Promotion moves it back up.
    sim.beginShardEpoch(0, Simulator::kUnlimitedPromoteBudget);
    sim.policy().onPageFreed(pg);
    ASSERT_TRUE(sim.promotePage(pg, Simulator::ChargeMode::Background));
    EXPECT_EQ(cg->charged(0), pages);
    EXPECT_EQ(cg->charged(1), 0u);
    expectCountersClean(sim);

    // Teardown uncharges every resident page.
    sim.unmapRegion(base);
    EXPECT_EQ(cg->chargedTotal(), 0u);
    expectClean(sim);
}

TEST(MemCgroupSimTest, ChargeConservationSurvivesInjectedRollbacks)
{
    // Fault injection aborts/rolls back a healthy fraction of the
    // migration transactions; the per-tier charges must track every
    // outcome (completed, aborted, rolled back, retried) exactly. The
    // invariant sweep cross-checks charges against a full page walk.
    MachineConfig cfg = twoTierMachine(512_KiB, 2_MiB);
    cfg.faults.enabled = true;
    cfg.faults.copyFailProb = 0.2;
    cfg.faults.shootdownFailProb = 0.1;
    cfg.faults.remapFailProb = 0.1;
    cfg.faults.persistentProb = 0.05;
    Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("multiclock", {}));
    const MemCgroupId id = sim.memcg().create("tenant");

    // 2x DRAM so promotions and demotions keep flowing.
    const std::size_t pages = 256;
    const Vaddr base = sim.mmap(pages * kPageSize, true, "heap", id);
    for (int round = 0; round < 6; ++round) {
        for (std::size_t i = 0; i < pages; ++i) {
            const std::size_t page = (i * 3 + round) % pages;
            sim.read(base + page * kPageSize);
        }
    }

    const MemCgroup *cg = sim.memcg().find(id);
    ASSERT_NE(cg, nullptr);
    EXPECT_EQ(cg->chargedTotal(), pages);  // nothing evicted here
    EXPECT_GT(sim.vmstat().global(stats::VmItem::PgmigrateAbort), 0u)
        << "fault mix injected nothing; the test lost its point";
    expectClean(sim);
}

TEST(MemCgroupSimTest, HardCapReclaimsOwnPagesBeforeCharging)
{
    Simulator sim(twoTierMachine(1_MiB, 4_MiB));
    sim.setPolicy(policies::makePolicy("static", {}));
    MemCgroupLimits limits;
    limits.maxPages = {32};
    const MemCgroupId id = sim.memcg().create("capped", limits);

    const std::size_t pages = 128;
    const Vaddr base = sim.mmap(pages * kPageSize, true, "heap", id);
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(base + i * kPageSize);

    const MemCgroup *cg = sim.memcg().find(id);
    ASSERT_NE(cg, nullptr);
    // The cap held: at most 32 of the 128 pages sit in DRAM, and the
    // overflow was satisfied by the group's own demotions (limit
    // reclaim) and/or lower-tier fallback — never by failing the fault.
    EXPECT_LE(cg->charged(0), 32u);
    EXPECT_EQ(cg->chargedTotal(), pages);
    const auto &vm = sim.vmstat();
    EXPECT_GT(vm.global(stats::VmItem::MemcgLimitReclaim) +
                  vm.global(stats::VmItem::PgtenantAllocFallback),
              0u);
    expectClean(sim);

    // An uncapped root region is untouched by any of this.
    const Vaddr rootBase = sim.mmap(8 * kPageSize);
    sim.write(rootBase);
    Page *rootPg = sim.space().lookup(rootBase >> kPageShift);
    ASSERT_NE(rootPg, nullptr);
    EXPECT_EQ(rootPg->memcg(), kRootMemcg);
    expectClean(sim);
}

TEST(MemCgroupSimTest, PromotionQuotaStarvesAndRecoversPerEpoch)
{
    Simulator sim(twoTierMachine(2_MiB, 4_MiB));
    sim.setPolicy(policies::makePolicy("static", {}));
    MemCgroupLimits metered;
    metered.promoteQuantum = 1;
    const MemCgroupId slow = sim.memcg().create("slow", metered);
    const MemCgroupId fast = sim.memcg().create("fast");  // unmetered

    const std::size_t pages = 8;
    const Vaddr slowBase =
        sim.mmap(pages * kPageSize, true, "slow-heap", slow);
    const Vaddr fastBase =
        sim.mmap(pages * kPageSize, true, "fast-heap", fast);
    for (std::size_t i = 0; i < pages; ++i) {
        sim.write(slowBase + i * kPageSize);
        sim.write(fastBase + i * kPageSize);
    }

    // Park everything in PM so promotions have something to do.
    auto demoteAll = [&](Vaddr base) {
        for (std::size_t i = 0; i < pages; ++i) {
            Page *pg = sim.space().lookup((base + i * kPageSize) >>
                                          kPageShift);
            ASSERT_NE(pg, nullptr);
            if (pg->node() == 0) {
                sim.policy().onPageFreed(pg);
                ASSERT_TRUE(sim.demotePage(
                    pg, Simulator::ChargeMode::Background));
            }
        }
    };
    demoteAll(slowBase);
    demoteAll(fastBase);

    auto tryPromote = [&](Vaddr base, std::size_t i) {
        Page *pg = sim.space().lookup((base + i * kPageSize) >>
                                      kPageShift);
        sim.policy().onPageFreed(pg);
        return sim.promotePage(pg, Simulator::ChargeMode::Background);
    };

    // Epoch 1: the metered tenant gets exactly its quantum of one and
    // then starves; the unmetered tenant is never held back.
    sim.beginShardEpoch(0, Simulator::kUnlimitedPromoteBudget);
    EXPECT_TRUE(tryPromote(slowBase, 0));
    EXPECT_FALSE(tryPromote(slowBase, 1));
    EXPECT_FALSE(tryPromote(slowBase, 2));
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(tryPromote(fastBase, i));
    EXPECT_EQ(
        sim.vmstat().global(stats::VmItem::PgtenantPromoteDeferred),
        2u);

    // Epoch 2: the deficit refills (1 new + 0 carried), so the starved
    // tenant recovers instead of being locked out forever.
    sim.beginShardEpoch(1, Simulator::kUnlimitedPromoteBudget);
    EXPECT_TRUE(tryPromote(slowBase, 1));
    EXPECT_FALSE(tryPromote(slowBase, 2));
    expectCountersClean(sim);
}

// --- Harness family -------------------------------------------------------

// Their identity across --jobs and --shards widths is checked, with
// every other golden scenario's, by RunIdentity in harness_test.

TEST(TenantScenarioTest, NoisyNeighborJobsAndWidthIdentity)
{
    const auto summary = harness::runSummary("tenant_noisy_neighbor",
                                             harness::goldenContext());

    // The figure of merit: isolation holds the victim's p99 at its
    // solo baseline while the shared host degrades it.
    EXPECT_NEAR(summary.at("victim_p99_ratio_isolated"), 1.0, 0.01);
    EXPECT_GT(summary.at("victim_p99_ratio_shared"), 1.1);
    EXPECT_GT(summary.at("isolated.promote_deferred"), 0.0);
}

TEST(TenantScenarioTest, ChurnJobsAndWidthIdentity)
{
    const auto summary =
        harness::runSummary("tenant_churn", harness::goldenContext());

    // The waves really exercised the edges under test.
    EXPECT_GT(summary.at("multiclock.swap_outs"), 0.0);
    EXPECT_GT(summary.at("multiclock.alloc_fallbacks"), 0.0);
    EXPECT_GT(summary.at("multiclock.limit_reclaims"), 0.0);
    EXPECT_GT(summary.at("multiclock.slot_releases"), 0.0);
    EXPECT_EQ(summary.at("multiclock.leaked_charges"), 0.0);
    EXPECT_EQ(summary.at("static.leaked_charges"), 0.0);
}

}  // namespace
