/**
 * @file
 * Unit tests for the baseline policies: static tiering, Nimble,
 * AutoTiering (CPM/OPM), Memory-mode, AMP, and the factory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "policies/amp.hh"
#include "policies/autotiering.hh"
#include "policies/factory.hh"
#include "policies/memory_mode.hh"
#include "policies/nimble.hh"
#include "policies/static_tiering.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace policies {
namespace {

sim::MachineConfig
testMachine(bool cache = false)
{
    sim::MachineConfig cfg = sim::tinyTestMachine();
    cfg.cache.enabled = cache;
    return cfg;
}

/** Isolate + demote a page onto the PM node's inactive list. */
void
moveToPmem(sim::Simulator &sim, Page *pg)
{
    sim.memory().node(pg->node()).lists().remove(pg);
    ASSERT_TRUE(
        sim.demotePage(pg, sim::Simulator::ChargeMode::Background));
}

Page *
touchPage(sim::Simulator &sim)
{
    const Vaddr a = sim.mmap(kPageSize);
    sim.read(a);
    return sim.space().lookup(pageNumOf(a));
}

/** Every page currently resident in DRAM. */
std::vector<Page *>
dramPages(sim::Simulator &sim)
{
    std::vector<Page *> out;
    sim.space().forEachPage([&](Page *pg) {
        if (pg->resident() && sim.pageTier(pg) == TierKind::Dram)
            out.push_back(pg);
    });
    return out;
}

/**
 * Fig. 4 arrival for pages that left DRAM: each of @p before now on PM
 * sits on an inactive list with PG_referenced clear.
 * Returns how many did.
 */
std::size_t
expectDemotedArrivals(sim::Simulator &sim, const std::vector<Page *> &before)
{
    std::size_t moved = 0;
    for (Page *pg : before) {
        if (!pg->resident() || sim.pageTier(pg) != TierKind::Pmem)
            continue;
        ++moved;
        EXPECT_EQ(pg->list(), pfra::NodeLists::inactiveKind(pg->isAnon()))
            << "vpn " << pg->vpn();
        EXPECT_FALSE(pg->referenced()) << "vpn " << pg->vpn();
    }
    return moved;
}

// --- Static tiering ------------------------------------------------------------

TEST(StaticTieringTest, NeverMigrates)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<StaticTieringPolicy>());
    Page *pg = touchPage(sim);
    moveToPmem(sim, pg);
    const auto before = sim.vmstat().global(stats::VmItem::PgpromoteSuccess);
    // Hammer the PM page for several simulated seconds.
    for (int i = 0; i < 50; ++i) {
        sim.read(pg->vaddr());
        sim.compute(100_ms);
    }
    EXPECT_EQ(sim.pageTier(pg), TierKind::Pmem);
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::PgpromoteSuccess), before);
}

TEST(StaticTieringTest, FeatureRow)
{
    StaticTieringPolicy policy;
    EXPECT_EQ(policy.features().tiering, "Static-Tiering");
    EXPECT_STREQ(policy.name(), "static");
}

// --- Nimble ---------------------------------------------------------------------

TEST(NimbleTest, PromotesOnSingleReference)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<NimblePolicy>());
    Page *pg = touchPage(sim);
    moveToPmem(sim, pg);
    // One access, then let the daemon run once: recency-only selection
    // promotes immediately (unlike MULTI-CLOCK's 3-access requirement).
    sim.read(pg->vaddr());
    sim.compute(1100_ms);
    EXPECT_EQ(sim.pageTier(pg), TierKind::Dram);
    EXPECT_GE(sim.vmstat().global(stats::VmItem::PgpromoteSuccess), 1u);
}

TEST(NimbleTest, ExchangesWhenDramFull)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<NimblePolicy>());
    auto &dram = sim.memory().node(0);
    // Fill DRAM with never-referenced pages, then exhaust free frames.
    const Vaddr a = sim.mmap(dram.totalFrames() * 2 * kPageSize);
    for (std::size_t i = 0; i < dram.totalFrames() * 2; ++i)
        sim.write(a + i * kPageSize);
    Paddr p;
    while (dram.allocFrame(p)) {
    }
    // Pick a PM-resident page and make it hot.
    Page *hot = nullptr;
    sim.space().forEachPage([&](Page *pg) {
        if (!hot && sim.pageTier(pg) == TierKind::Pmem)
            hot = pg;
    });
    ASSERT_NE(hot, nullptr);
    sim.space().forEachPage([](Page *pg) {
        pg->setPteReferenced(false);
    });
    const std::vector<Page *> inDram = dramPages(sim);
    // Keep the PM page hot across daemon wakes. The victim search is a
    // CLOCK pass over the upper tier, so it takes a few wakes before a
    // cleared-and-still-cold DRAM page becomes available for exchange.
    for (int tick = 0; tick < 12; ++tick) {
        hot->setPteReferenced(true);
        sim.compute(1100_ms);
        if (sim.pageTier(hot) == TierKind::Dram)
            break;
    }
    EXPECT_EQ(sim.pageTier(hot), TierKind::Dram);
    EXPECT_GE(sim.vmstat().global(stats::VmItem::Pgexchange), 1u);
    // The hot page arrives on DRAM's active list; the victim resets to
    // PM's inactive list.
    EXPECT_EQ(hot->list(), pfra::NodeLists::activeKind(hot->isAnon()));
    EXPECT_GE(expectDemotedArrivals(sim, inDram), 1u);
}

TEST(NimbleTest, FeatureRow)
{
    NimblePolicy policy;
    EXPECT_EQ(policy.features().promotion, "Recency");
    EXPECT_EQ(policy.features().numaAware, "No");
}

// --- AutoTiering -----------------------------------------------------------------

TEST(AutoTieringTest, ScanPoisonsPages)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm));
    const Vaddr a = sim.mmap(64 * kPageSize);
    for (int i = 0; i < 64; ++i)
        sim.write(a + static_cast<Vaddr>(i) * kPageSize);
    sim.compute(1100_ms);  // one profiling pass
    EXPECT_GT(sim.vmstat().global(stats::VmItem::NumaPteUpdates), 0u);
    std::size_t poisoned = 0;
    sim.space().forEachPage([&](Page *pg) {
        if (pg->hintPoisoned())
            ++poisoned;
    });
    EXPECT_GT(poisoned, 0u);
}

TEST(AutoTieringTest, HintFaultChargedAndCleared)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm));
    Page *pg = touchPage(sim);
    pg->setHintPoisoned(true);
    const SimTime before = sim.now();
    sim.read(pg->vaddr());
    EXPECT_FALSE(pg->hintPoisoned());
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::PghintFault), 1u);
    EXPECT_GE(sim.now() - before, sim.memConfig().hintFaultLatency);
}

TEST(AutoTieringTest, CpmPromotesOnFaultWhenDramHasSpace)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm));
    Page *pg = touchPage(sim);
    moveToPmem(sim, pg);
    pg->setHintPoisoned(true);
    sim.read(pg->vaddr());  // hint fault -> synchronous promotion
    EXPECT_EQ(sim.pageTier(pg), TierKind::Dram);
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::NumaPagesMigrated), 1u);
}

TEST(AutoTieringTest, CpmFaultPathChargesMultiplier)
{
    sim::MachineConfig cfg = testMachine();
    sim::Simulator sim(cfg);
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm));
    Page *pg = touchPage(sim);
    moveToPmem(sim, pg);
    pg->setHintPoisoned(true);
    const SimTime before = sim.now();
    sim.read(pg->vaddr());
    const SimTime cost = sim.now() - before;
    const SimTime migration = cfg.mem.pageMigrationCost(
        TierKind::Pmem, TierKind::Dram);
    EXPECT_GE(cost, static_cast<SimTime>(
        cfg.mem.faultPathMigrationMultiplier *
        static_cast<double>(migration)));
}

TEST(AutoTieringTest, CpmExchangesWithColdVictimWhenFull)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm));
    auto &dram = sim.memory().node(0);
    const Vaddr a = sim.mmap(dram.totalFrames() * 2 * kPageSize);
    for (std::size_t i = 0; i < dram.totalFrames() * 2; ++i)
        sim.write(a + i * kPageSize);
    Paddr p;
    while (dram.allocFrame(p)) {
    }
    Page *hot = nullptr;
    sim.space().forEachPage([&](Page *pg) {
        if (!hot && sim.pageTier(pg) == TierKind::Pmem)
            hot = pg;
    });
    ASSERT_NE(hot, nullptr);
    hot->setHintPoisoned(true);
    // Let several profiling passes elapse: the victim-coldness horizon
    // is a couple of full passes, and no DRAM page faults meanwhile.
    sim.compute(60_s);
    const std::vector<Page *> inDram = dramPages(sim);
    hot->setHintPoisoned(true);  // re-arm in case a pass consumed it
    sim.read(hot->vaddr());
    EXPECT_EQ(sim.pageTier(hot), TierKind::Dram);
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::Pgexchange), 1u);
    // The hot page arrives on DRAM's active list; the one victim resets
    // to PM's inactive list.
    EXPECT_EQ(hot->list(), pfra::NodeLists::activeKind(hot->isAnon()));
    EXPECT_EQ(expectDemotedArrivals(sim, inDram), 1u);
}

TEST(AutoTieringTest, OpmDemotesZeroHistoryPagesUnderPressure)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Opm));
    auto &dram = sim.memory().node(0);
    const Vaddr a = sim.mmap(dram.totalFrames() / 2 * kPageSize);
    for (std::size_t i = 0; i < dram.totalFrames() / 2; ++i)
        sim.write(a + i * kPageSize);
    // All history bits are zero (no hint faults recorded).
    Paddr p;
    while (!dram.belowLow())
        ASSERT_TRUE(dram.allocFrame(p));
    sim.policy().handlePressure(dram);
    EXPECT_GT(sim.vmstat().global(stats::VmItem::Pgdemote), 0u);
}

TEST(AutoTieringTest, OpmHistoryMaintainedByScan)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Opm));
    Page *pg = touchPage(sim);
    pg->setHintFaultedSinceScan(true);
    sim.compute(1100_ms);  // one profiling pass shifts history
    EXPECT_EQ(pg->historyBits() & 1u, 1u);
    EXPECT_FALSE(pg->hintFaultedSinceScan());
}

TEST(AutoTieringTest, Names)
{
    const AutoTieringPolicy cpm(AutoTieringMode::Cpm);
    const AutoTieringPolicy opm(AutoTieringMode::Opm);
    EXPECT_STREQ(cpm.name(), "at-cpm");
    EXPECT_STREQ(opm.name(), "at-opm");
    EXPECT_EQ(cpm.features().demotion, "N/A");
    EXPECT_EQ(opm.features().demotion, "Frequency");
}

// --- Memory-mode -----------------------------------------------------------------

TEST(MemoryModeTest, AllPagesLiveInPmem)
{
    sim::MachineConfig cfg = sim::paperMachineMemoryMode();
    cfg.cache.enabled = false;
    sim::Simulator sim(cfg);
    sim.setPolicy(std::make_unique<MemoryModePolicy>(1_MiB));
    Page *pg = touchPage(sim);
    EXPECT_EQ(sim.pageTier(pg), TierKind::Pmem);
}

TEST(MemoryModeTest, RepeatAccessHitsDramCache)
{
    sim::MachineConfig cfg = sim::paperMachineMemoryMode();
    cfg.cache.enabled = false;
    sim::Simulator sim(cfg);
    auto policy = std::make_unique<MemoryModePolicy>(1_MiB);
    MemoryModePolicy *mm = policy.get();
    sim.setPolicy(std::move(policy));
    Page *pg = touchPage(sim);
    sim.read(pg->vaddr());  // fill
    const SimTime before = sim.now();
    sim.read(pg->vaddr());  // hit
    EXPECT_EQ(sim.now() - before,
              cfg.mem.timing(TierKind::Dram).loadLatency);
    EXPECT_GT(mm->cache().hits(), 0u);
}

TEST(MemoryModeTest, MissSlowerThanHit)
{
    sim::MachineConfig cfg = sim::paperMachineMemoryMode();
    cfg.cache.enabled = false;
    sim::Simulator sim(cfg);
    sim.setPolicy(std::make_unique<MemoryModePolicy>(64_KiB));
    const Vaddr a = sim.mmap(2 * kPageSize);
    sim.read(a);
    sim.read(a);  // hit
    SimTime t0 = sim.now();
    sim.read(a);
    const SimTime hit = sim.now() - t0;
    // Conflicting address 64 KiB away (same direct-mapped slot).
    sim.read(a + kPageSize);  // fault other page; different slot
    t0 = sim.now();
    sim.read(a + 64_KiB % (2 * kPageSize));  // may or may not conflict
    (void)t0;
    // The basic property: a miss costs at least PM load latency.
    sim::Simulator sim2(cfg);
    sim2.setPolicy(std::make_unique<MemoryModePolicy>(64_KiB));
    const Vaddr b = sim2.mmap(kPageSize);
    sim2.read(b);  // fault + first-touch miss
    Page *pg = sim2.space().lookup(pageNumOf(b));
    (void)pg;
    EXPECT_LT(hit, cfg.mem.timing(TierKind::Pmem).loadLatency);
}

// --- AMP --------------------------------------------------------------------------

class AmpTest : public ::testing::TestWithParam<AmpMode>
{
};

TEST_P(AmpTest, PromotesHotPmemPages)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<AmpPolicy>(GetParam()));
    Page *pg = touchPage(sim);
    moveToPmem(sim, pg);
    // Make the page clearly the hottest PM page.
    for (int i = 0; i < 20; ++i) {
        sim.read(pg->vaddr());
        sim.compute(50_ms);
    }
    sim.compute(2_s);
    // LRU and LFU must promote it; Random promotes *something*
    // eventually (it is the only PM page, so it gets picked too).
    EXPECT_EQ(sim.pageTier(pg), TierKind::Dram);
    EXPECT_GE(sim.vmstat().global(stats::VmItem::PgpromoteSuccess), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, AmpTest,
                         ::testing::Values(AmpMode::Lru, AmpMode::Lfu,
                                           AmpMode::Random));

TEST(AmpTest2, Names)
{
    EXPECT_STREQ(AmpPolicy(AmpMode::Lru).name(), "amp-lru");
    EXPECT_STREQ(AmpPolicy(AmpMode::Lfu).name(), "amp-lfu");
    EXPECT_STREQ(AmpPolicy(AmpMode::Random).name(), "amp-random");
}

// --- Shared reclaim pass -----------------------------------------------------

/** Policies whose handlePressure demotes through reclaimPass(). */
class ReclaimPassTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReclaimPassTest, DemotesToPmInactiveThenSwapsOnBottomTier)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(makePolicy(GetParam(), PolicyOptions{}));
    auto &mem = sim.memory();
    sim::Node &dram = mem.node(0);
    sim::Node &pm = mem.node(1);
    ASSERT_EQ(pm.tier(), TierKind::Pmem);

    // Born in DRAM, then cold: no accessed bit for the CLOCK pass.
    const std::size_t n = dram.totalFrames() / 2;
    const Vaddr a = sim.mmap(n * kPageSize);
    for (std::size_t i = 0; i < n; ++i)
        sim.write(a + i * kPageSize);
    sim.space().forEachPage([](Page *pg) { pg->setPteReferenced(false); });
    const std::vector<Page *> inDram = dramPages(sim);
    ASSERT_EQ(inDram.size(), n);

    // Below DRAM's low watermark: pages demote to PM and none swap.
    Paddr p;
    while (!dram.belowLow())
        ASSERT_TRUE(dram.allocFrame(p));
    sim.policy().handlePressure(dram);
    const auto &vm = sim.vmstat();
    EXPECT_GT(vm.global(stats::VmItem::Pgdemote), 0u);
    EXPECT_EQ(expectDemotedArrivals(sim, inDram),
              vm.global(stats::VmItem::Pgdemote));
    EXPECT_EQ(vm.global(stats::VmItem::Pswpout), 0u);
    EXPECT_TRUE(dram.aboveHigh());

    // PM is the bottom tier: pressure there evicts to swap.
    while (!pm.belowLow())
        ASSERT_TRUE(pm.allocFrame(p));
    sim.policy().handlePressure(pm);
    EXPECT_GT(vm.global(stats::VmItem::Pswpout), 0u);
}

INSTANTIATE_TEST_SUITE_P(PressurePolicies, ReclaimPassTest,
                         ::testing::Values("multiclock", "nimble",
                                           "amp-lru"),
                         [](const auto &info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });


TEST(NimbleTest, PromoteBudgetBoundsMigrationsPerWake)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<NimblePolicy>());
    // More hot PM pages than one wake may promote, all referenced.
    const std::size_t hot = NimblePolicy::kPromoteBudget + 32;
    const Vaddr a = sim.mmap(hot * kPageSize);
    for (std::size_t i = 0; i < hot; ++i)
        sim.write(a + i * kPageSize);
    sim.space().forEachPage([&](Page *pg) { moveToPmem(sim, pg); });
    sim.space().forEachPage([](Page *pg) {
        pg->setPteReferenced(true);
    });
    sim.compute(1100_ms);  // one wake
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::PgpromoteSuccess),
              NimblePolicy::kPromoteBudget);
    // The rest stay on PM with their accessed bits for the next wake.
    std::size_t left = 0;
    sim.space().forEachPage([&](Page *pg) {
        if (sim.pageTier(pg) == TierKind::Pmem) {
            ++left;
            EXPECT_TRUE(pg->pteReferenced()) << "vpn " << pg->vpn();
        }
    });
    EXPECT_EQ(left, hot - NimblePolicy::kPromoteBudget);
}

TEST(AutoTieringTest, PoisonChunkCappedByFootprint)
{
    PolicyOptions opts;
    opts.poisonPagesPerSec = 1u << 20;  // 2^20 pages per 1 s pass
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm, opts));
    const Vaddr a = sim.mmap(256 * kPageSize);
    for (int i = 0; i < 256; ++i)
        sim.write(a + static_cast<Vaddr>(i) * kPageSize);
    sim.compute(1100_ms);  // one profiling pass
    // At most ~1/16th of the vpn space is poisoned per pass.
    const auto limit = sim.space().vpnLimit();
    EXPECT_LE(sim.vmstat().global(stats::VmItem::NumaPteUpdates),
              std::max<std::uint64_t>(64, limit / 16));
    EXPECT_GT(sim.vmstat().global(stats::VmItem::NumaPteUpdates), 0u);
}

TEST(AutoTieringTest, WarmVictimsAreProtected)
{
    // A DRAM page with a recent hint fault must not be picked as an
    // exchange victim (the cold horizon spans full profiling passes).
    sim::Simulator sim(testMachine());
    sim.setPolicy(
        std::make_unique<AutoTieringPolicy>(AutoTieringMode::Cpm));
    auto &dram = sim.memory().node(0);
    const Vaddr a = sim.mmap(dram.totalFrames() * 2 * kPageSize);
    for (std::size_t i = 0; i < dram.totalFrames() * 2; ++i)
        sim.write(a + i * kPageSize);
    Paddr p;
    while (dram.allocFrame(p)) {
    }
    // Mark every DRAM page recently hint-faulted. The policy keeps the
    // stamp; DRAM pages have no tier to promote into, so the handler
    // only records it.
    sim.compute(60_s);  // establish the pass period
    sim.space().forEachPage([&](Page *pg) {
        if (pg->resident() && sim.pageTier(pg) == TierKind::Dram)
            sim.policy().onHintFault(pg);
    });
    Page *hot = nullptr;
    sim.space().forEachPage([&](Page *pg) {
        if (!hot && sim.pageTier(pg) == TierKind::Pmem)
            hot = pg;
    });
    ASSERT_NE(hot, nullptr);
    hot->setHintPoisoned(true);
    const auto before = sim.vmstat().global(stats::VmItem::Pgexchange);
    sim.read(hot->vaddr());
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::Pgexchange), before);
    EXPECT_EQ(sim.pageTier(hot), TierKind::Pmem);
}


TEST(AutoNumaTieringTest, PromotesOnlyWhenDramHasSpace)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<AutoTieringPolicy>(
        AutoTieringMode::AutoNuma));
    Page *pg = touchPage(sim);
    moveToPmem(sim, pg);
    pg->setHintPoisoned(true);
    sim.read(pg->vaddr());  // DRAM has space: promoted on the fault
    EXPECT_EQ(sim.pageTier(pg), TierKind::Dram);
}

TEST(AutoNumaTieringTest, NeverExchangesWhenFull)
{
    sim::Simulator sim(testMachine());
    sim.setPolicy(std::make_unique<AutoTieringPolicy>(
        AutoTieringMode::AutoNuma));
    auto &dram = sim.memory().node(0);
    const Vaddr a = sim.mmap(dram.totalFrames() * 2 * kPageSize);
    for (std::size_t i = 0; i < dram.totalFrames() * 2; ++i)
        sim.write(a + i * kPageSize);
    Paddr p;
    while (dram.allocFrame(p)) {
    }
    Page *hot = nullptr;
    sim.space().forEachPage([&](Page *pg) {
        if (!hot && sim.pageTier(pg) == TierKind::Pmem)
            hot = pg;
    });
    ASSERT_NE(hot, nullptr);
    sim.compute(60_s);
    hot->setHintPoisoned(true);
    sim.read(hot->vaddr());
    EXPECT_EQ(sim.pageTier(hot), TierKind::Pmem);  // stays put
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::Pgexchange), 0u);
    EXPECT_STREQ(
        AutoTieringPolicy(AutoTieringMode::AutoNuma).name(),
        "autonuma");
}

// --- Factory ---------------------------------------------------------------------

TEST(FactoryTest, MakesEveryPolicy)
{
    for (const auto &name : policyNames()) {
        auto policy = makePolicy(name, 1_MiB);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(FactoryTest, TieredNamesMatchPaperFigure5)
{
    const auto names = tieredPolicyNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "static");
    EXPECT_EQ(names[1], "multiclock");
}

/** The policyNames() entries whose policy registers a daemon. */
std::vector<std::string>
daemonPolicyNames()
{
    std::vector<std::string> names;
    for (const std::string &name : policyNames()) {
        if (name != "static" && name != "memory-mode")
            names.push_back(name);
    }
    return names;
}

class FactoryTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FactoryTest, ScanIntervalSetsTheDaemonPeriod)
{
    PolicyOptions opts;
    opts.scanInterval = 250_ms;
    sim::Simulator sim(testMachine());
    sim.setPolicy(makePolicy(GetParam(), opts));
    // AutoTiering counts no wake while the address space is empty.
    sim.read(sim.mmap(kPageSize));
    sim.compute(1_s);
    EXPECT_EQ(sim.vmstat().global(stats::VmItem::KpromotedWake), 4u);
}

INSTANTIATE_TEST_SUITE_P(DaemonPolicies, FactoryTest,
                         ::testing::ValuesIn(daemonPolicyNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });

}  // namespace
}  // namespace policies
}  // namespace mclock
