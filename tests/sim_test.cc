/**
 * @file
 * Unit tests for the sim module: nodes, memory system, migration,
 * daemons, metrics, and the simulator core's access path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/units.hh"
#include "policies/static_tiering.hh"
#include "sim/daemon.hh"
#include "sim/machine.hh"
#include "sim/memory_system.hh"
#include "sim/metrics.hh"
#include "sim/migration.hh"
#include "sim/node.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace sim {
namespace {

// --- Node ----------------------------------------------------------------------

TEST(NodeTest, FrameAllocationRoundTrip)
{
    Node node(0, TierKind::Dram, 4, 0x1000000);
    EXPECT_EQ(node.freeFrames(), 4u);
    Paddr a, b;
    EXPECT_TRUE(node.allocFrame(a));
    EXPECT_TRUE(node.allocFrame(b));
    EXPECT_NE(a, b);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_EQ(node.usedFrames(), 2u);
    node.freeFrame(a);
    EXPECT_EQ(node.freeFrames(), 3u);
}

TEST(NodeTest, ExhaustionFails)
{
    Node node(0, TierKind::Pmem, 2, 0);
    Paddr p;
    EXPECT_TRUE(node.allocFrame(p));
    EXPECT_TRUE(node.allocFrame(p));
    EXPECT_FALSE(node.allocFrame(p));
}

TEST(NodeTest, WatermarkPredicates)
{
    Node node(0, TierKind::Dram, 10000, 0);
    EXPECT_FALSE(node.belowLow());
    Paddr p;
    while (node.freeFrames() > node.watermarks().low)
        node.allocFrame(p);
    EXPECT_TRUE(node.belowLow());
    EXPECT_FALSE(node.belowMin());
    while (node.freeFrames() > node.watermarks().min)
        node.allocFrame(p);
    EXPECT_TRUE(node.belowMin());
    EXPECT_FALSE(node.aboveHigh());
}

TEST(NodeTest, TierTag)
{
    Node node(3, TierKind::Pmem, 1, 0);
    EXPECT_EQ(node.tier(), TierKind::Pmem);
    EXPECT_EQ(node.id(), 3);
}

// --- MemorySystem ------------------------------------------------------------------

TEST(MemorySystemTest, TierOrdering)
{
    MemorySystem mem({{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 4_MiB}});
    ASSERT_EQ(mem.tierOrder().size(), 2u);
    EXPECT_EQ(mem.tierOrder()[0], TierKind::Dram);
    EXPECT_EQ(mem.tierOrder()[1], TierKind::Pmem);
    TierRank out;
    EXPECT_TRUE(mem.higherTier(TierKind::Pmem, out));
    EXPECT_EQ(out, TierKind::Dram);
    EXPECT_FALSE(mem.higherTier(TierKind::Dram, out));
    EXPECT_TRUE(mem.lowerTier(TierKind::Dram, out));
    EXPECT_EQ(out, TierKind::Pmem);
    EXPECT_FALSE(mem.lowerTier(TierKind::Pmem, out));
}

TEST(MemorySystemTest, ThreeTierOrdering)
{
    MemorySystem mem({{0, 1_MiB}, {1, 2_MiB}, {2, 4_MiB}});
    ASSERT_EQ(mem.tierOrder().size(), 3u);
    EXPECT_EQ(mem.numTiers(), 3u);
    EXPECT_EQ(mem.tierOrder().front(), 0);
    EXPECT_EQ(mem.tierOrder().back(), 2);
    TierRank out;
    EXPECT_TRUE(mem.higherTier(2, out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(mem.higherTier(1, out));
    EXPECT_EQ(out, 0);
    EXPECT_FALSE(mem.higherTier(0, out));
    EXPECT_TRUE(mem.lowerTier(0, out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(mem.lowerTier(1, out));
    EXPECT_EQ(out, 2);
    EXPECT_FALSE(mem.lowerTier(2, out));
}

TEST(MemorySystemTest, SparseRanksSkipEmptyTiers)
{
    // Nodes only on ranks 0 and 2: adjacency skips the node-less rank 1.
    MemorySystem mem({{0, 1_MiB}, {2, 4_MiB}});
    ASSERT_EQ(mem.tierOrder().size(), 2u);
    EXPECT_TRUE(mem.tier(1).empty());
    TierRank out;
    EXPECT_TRUE(mem.higherTier(2, out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(mem.lowerTier(0, out));
    EXPECT_EQ(out, 2);
}

TEST(MemorySystemTest, PmOnlyMachine)
{
    MemorySystem mem({{TierKind::Pmem, 4_MiB}});
    EXPECT_EQ(mem.tierOrder().size(), 1u);
    EXPECT_TRUE(mem.tier(TierKind::Dram).empty());
    TierRank out;
    EXPECT_FALSE(mem.higherTier(TierKind::Pmem, out));
}

TEST(MemorySystemTest, MultiNodeTier)
{
    MemorySystem mem({{TierKind::Dram, 1_MiB},
                      {TierKind::Dram, 1_MiB},
                      {TierKind::Pmem, 2_MiB}});
    EXPECT_EQ(mem.tier(TierKind::Dram).size(), 2u);
    EXPECT_EQ(mem.tierFrames(TierKind::Dram), 2 * 256u);
    EXPECT_EQ(mem.tierFreeFrames(TierKind::Dram), 512u);
}

TEST(MemorySystemTest, PickNodePrefersMostFree)
{
    MemorySystem mem({{TierKind::Dram, 1_MiB}, {TierKind::Dram, 1_MiB}});
    Paddr p;
    mem.node(0).allocFrame(p);
    EXPECT_EQ(mem.pickNodeWithSpace(TierKind::Dram, false), 1);
}

TEST(MemorySystemTest, DistinctPaddrRanges)
{
    MemorySystem mem({{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 1_MiB}});
    Paddr a, b;
    mem.node(0).allocFrame(a);
    mem.node(1).allocFrame(b);
    EXPECT_NE(a >> 32, b >> 32);  // separate 4 GiB windows
}

TEST(MemorySystemTest, NodeLargerThanItsWindowDies)
{
    EXPECT_DEATH(MemorySystem({{TierKind::Dram, 4_GiB + kPageSize}}),
                 "kNodeGap");
}

// --- MigrationEngine -----------------------------------------------------------------

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : mem_({{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 1_MiB}}),
          engine_(mem_, cfg_, nullptr)
    {
    }

    Page *
    makeResident(NodeId node, bool anon = true)
    {
        pages_.push_back(std::make_unique<Page>(pages_.size(), anon));
        Paddr pa;
        EXPECT_TRUE(mem_.node(node).allocFrame(pa));
        pages_.back()->placeOn(node, pa);
        return pages_.back().get();
    }

    MemoryConfig cfg_;
    MemorySystem mem_;
    MigrationEngine engine_;
    std::vector<std::unique_ptr<Page>> pages_;
};

TEST_F(MigrationTest, PromotionMovesFrame)
{
    Page *pg = makeResident(1);
    const Paddr oldPa = pg->paddr();
    SimTime cost = 0;
    ASSERT_TRUE(engine_.migrate(pg, 0, cost).ok());
    EXPECT_EQ(pg->node(), 0);
    EXPECT_NE(pg->paddr(), oldPa);
    EXPECT_GT(cost, 0u);
    // Source frame was returned to the PM node.
    EXPECT_EQ(mem_.node(1).freeFrames(), mem_.node(1).totalFrames());
}

TEST_F(MigrationTest, DemotionCountsSeparately)
{
    Page *pg = makeResident(0);
    SimTime cost = 0;
    ASSERT_TRUE(engine_.migrate(pg, 1, cost).ok());
    EXPECT_EQ(pg->node(), 1);
    EXPECT_EQ(mem_.node(0).freeFrames(), mem_.node(0).totalFrames());
}

TEST_F(MigrationTest, LockedPageFails)
{
    Page *pg = makeResident(1);
    pg->setLocked(true);
    SimTime cost = 0;
    EXPECT_EQ(engine_.migrate(pg, 0, cost).outcome, MigrateOutcome::Busy);
    EXPECT_EQ(pg->node(), 1);
}

TEST_F(MigrationTest, FullDestinationFails)
{
    // Fill DRAM completely.
    while (mem_.node(0).freeFrames() > 0)
        makeResident(0);
    Page *pg = makeResident(1);
    SimTime cost = 0;
    EXPECT_FALSE(engine_.migrate(pg, 0, cost).ok());
}

TEST_F(MigrationTest, ExchangeSwapsPlacement)
{
    Page *hot = makeResident(1);
    Page *cold = makeResident(0);
    const Paddr hotPa = hot->paddr();
    const Paddr coldPa = cold->paddr();
    SimTime cost = 0;
    ASSERT_TRUE(engine_.exchange(hot, cold, cost).ok());
    EXPECT_EQ(hot->node(), 0);
    EXPECT_EQ(cold->node(), 1);
    EXPECT_EQ(hot->paddr(), coldPa);
    EXPECT_EQ(cold->paddr(), hotPa);
    // Exchange is cheaper than two independent migrations.
    const SimTime two =
        cfg_.pageMigrationCost(TierKind::Pmem, TierKind::Dram) +
        cfg_.pageMigrationCost(TierKind::Dram, TierKind::Pmem);
    EXPECT_LT(cost, two);
}

TEST_F(MigrationTest, MigrationClearsPteDirty)
{
    Page *pg = makeResident(1);
    pg->setPteDirty(true);
    pg->setDirty(true);
    SimTime cost;
    ASSERT_TRUE(engine_.migrate(pg, 0, cost).ok());
    EXPECT_FALSE(pg->pteDirty());
    EXPECT_TRUE(pg->dirty());  // logical dirtiness survives
}

// --- DaemonScheduler ----------------------------------------------------------------

TEST(DaemonSchedulerTest, FiresOnSchedule)
{
    DaemonScheduler sched;
    int fired = 0;
    sched.add("d", 100, [&](SimTime) { ++fired; });
    EXPECT_EQ(sched.nextDue(), 100u);
    sched.runDue(99);
    EXPECT_EQ(fired, 0);
    sched.runDue(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sched.nextDue(), 200u);
    sched.runDue(450);  // catches up: 200, 300, 400
    EXPECT_EQ(fired, 4);
}

TEST(DaemonSchedulerTest, MultipleDaemonsInWakeOrder)
{
    DaemonScheduler sched;
    std::vector<int> order;
    sched.add("a", 100, [&](SimTime) { order.push_back(1); });
    sched.add("b", 150, [&](SimTime) { order.push_back(2); });
    sched.runDue(300);
    // wakes: a@100, b@150, a@200, a@300, b@300.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 1, 2}));
}

// --- Metrics -------------------------------------------------------------------------

TEST(MetricsTest, WindowBucketing)
{
    Metrics metrics(20_s);
    metrics.recordAccess(1_s, TierKind::Dram, false);
    metrics.recordAccess(25_s, TierKind::Pmem, false);
    metrics.recordAccess(25_s, TierKind::Pmem, true);
    ASSERT_EQ(metrics.windows().size(), 2u);
    EXPECT_EQ(metrics.windows()[0].tierAccessCount(TierKind::Dram), 1u);
    EXPECT_EQ(metrics.windows()[1].tierAccessCount(TierKind::Pmem), 1u);
    // The LLC hit counts as an access but reaches no tier.
    EXPECT_EQ(metrics.windows()[1].accesses, 2u);
    EXPECT_EQ(metrics.totalAccesses(), 3u);
}

TEST(MetricsTest, ReaccessWithinNextRoundCounts)
{
    Page pg(0, true);
    Metrics metrics(20_s);
    metrics.beginPromotionRound();
    metrics.recordPromotion(1_s, &pg);
    metrics.maybeRecordReaccess(2_s, &pg);
    EXPECT_EQ(metrics.totalReaccessed(), 1u);
    // Counted once only.
    metrics.maybeRecordReaccess(3_s, &pg);
    EXPECT_EQ(metrics.totalReaccessed(), 1u);
}

TEST(MetricsTest, ReaccessTooLateDoesNotCount)
{
    Page pg(0, true);
    Metrics metrics(20_s);
    metrics.recordPromotion(1_s, &pg);
    metrics.beginPromotionRound();
    metrics.beginPromotionRound();  // two rounds later
    metrics.maybeRecordReaccess(5_s, &pg);
    EXPECT_EQ(metrics.totalReaccessed(), 0u);
}

TEST(MetricsTest, ReaccessPercent)
{
    Page a(0, true), b(1, true);
    Metrics metrics(20_s);
    metrics.recordPromotion(1_s, &a);
    metrics.recordPromotion(1_s, &b);
    metrics.maybeRecordReaccess(2_s, &a);
    EXPECT_DOUBLE_EQ(metrics.windows()[0].reaccessPercent(), 50.0);
}

// --- Simulator access path -------------------------------------------------------------

std::unique_ptr<Simulator>
makeSim(MachineConfig cfg = tinyTestMachine())
{
    auto sim = std::make_unique<Simulator>(cfg);
    sim->setPolicy(std::make_unique<policies::StaticTieringPolicy>());
    return sim;
}

TEST(SimulatorTest, FirstTouchFaultsAndPlaces)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(4 * kPageSize);
    sim->read(a);
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::PgfaultDram), 1u);
    Page *pg = sim->space().lookup(pageNumOf(a));
    ASSERT_NE(pg, nullptr);
    EXPECT_TRUE(pg->resident());
    // Born in the highest tier (DRAM has space).
    EXPECT_EQ(sim->pageTier(pg), TierKind::Dram);
    // On an LRU list (inactive head).
    EXPECT_EQ(pg->list(), LruListKind::InactiveAnon);
}

// A 1 KiB, 16-way LLC has one set, so its tags keep every line bit.
MachineConfig
oneSetLlcMachine(std::size_t pmNodes)
{
    MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 1_MiB}};
    for (std::size_t i = 0; i < pmNodes; ++i)
        cfg.nodes.push_back({TierKind::Pmem, 1_MiB});
    cfg.cache.sizeBytes = 1_KiB;
    cfg.cache.ways = 16;
    return cfg;
}

TEST(SimulatorTest, OneSetLlcTagsEveryLineOfThreeNodes)
{
    auto sim = makeSim(oneSetLlcMachine(2));
    const std::size_t pages = 2_MiB / kPageSize;
    const Vaddr a = sim->mmap(pages * kPageSize);
    for (std::size_t i = 0; i < pages; ++i)
        sim->write(a + i * kPageSize);
    bool onLastNode = false;
    for (std::size_t i = 0; i < pages; ++i) {
        sim->read(a + i * kPageSize);
        onLastNode |= sim->space().lookup(pageNumOf(a) + i)->node() == 2;
    }
    EXPECT_TRUE(onLastNode);
    EXPECT_EQ(sim->llc()->hits() + sim->llc()->misses(), 2 * pages);
}

TEST(SimulatorTest, RefusesLlcWithoutTagForTopLine)
{
    // Node 64 starts at 2^38: its line numbers need 33 bits.
    EXPECT_DEATH(Simulator{oneSetLlcMachine(64)}, "no 32-bit tag");
}

TEST(SimulatorTest, FaultCostCharged)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(kPageSize);
    const SimTime before = sim->now();
    sim->read(a);
    EXPECT_GE(sim->now() - before,
              sim->memConfig().minorFaultLatency);
}

TEST(SimulatorTest, LlcMissSetsPteBitsHitDoesNot)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(kPageSize);
    sim->read(a);  // fault + miss
    Page *pg = sim->space().lookup(pageNumOf(a));
    EXPECT_TRUE(pg->pteReferenced());
    pg->setPteReferenced(false);
    sim->read(a);  // LLC hit now
    EXPECT_FALSE(pg->pteReferenced());
}

TEST(SimulatorTest, StoreSetsDirty)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    EXPECT_TRUE(pg->dirty());
    EXPECT_TRUE(pg->pteDirty());
}

TEST(SimulatorTest, SpillsToPmemWhenDramFills)
{
    auto sim = makeSim();
    const std::size_t dramFrames =
        sim->memory().node(0).totalFrames();
    const Vaddr a = sim->mmap((dramFrames + 16) * kPageSize);
    for (std::size_t i = 0; i < dramFrames + 16; ++i)
        sim->write(a + i * kPageSize);
    // Everything resident; the overflow went to PM.
    std::size_t pmPages = 0;
    sim->space().forEachPage([&](Page *pg) {
        if (sim->pageTier(pg) == TierKind::Pmem)
            ++pmPages;
    });
    EXPECT_GT(pmPages, 0u);
}

TEST(SimulatorTest, PmemAccessSlowerThanDram)
{
    MachineConfig cfg = tinyTestMachine();
    cfg.cache.enabled = false;  // measure raw tier latency
    auto sim = makeSim(cfg);
    const std::size_t dramFrames = sim->memory().node(0).totalFrames();
    const Vaddr a = sim->mmap((dramFrames + 8) * kPageSize);
    for (std::size_t i = 0; i < dramFrames + 8; ++i)
        sim->write(a + i * kPageSize);
    Page *dramPage = nullptr;
    Page *pmemPage = nullptr;
    sim->space().forEachPage([&](Page *pg) {
        if (sim->pageTier(pg) == TierKind::Dram)
            dramPage = pg;
        else
            pmemPage = pg;
    });
    ASSERT_NE(dramPage, nullptr);
    ASSERT_NE(pmemPage, nullptr);
    SimTime t0 = sim->now();
    sim->read(dramPage->vaddr());
    const SimTime dramLat = sim->now() - t0;
    t0 = sim->now();
    sim->read(pmemPage->vaddr());
    const SimTime pmemLat = sim->now() - t0;
    EXPECT_EQ(dramLat, sim->memConfig().timing(TierKind::Dram).loadLatency);
    EXPECT_EQ(pmemLat, sim->memConfig().timing(TierKind::Pmem).loadLatency);
}

TEST(SimulatorTest, ComputeAdvancesClockAndRunsDaemons)
{
    auto sim = makeSim();
    int fired = 0;
    sim->daemons().add("t", 1_ms, [&](SimTime) { ++fired; });
    sim->compute(10_ms);
    EXPECT_EQ(sim->now(), 10_ms);
    EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, BackgroundChargeUsesInterference)
{
    auto sim = makeSim();
    const SimTime before = sim->now();
    sim->chargeBackground(1000);
    EXPECT_EQ(sim->now() - before,
              static_cast<SimTime>(
                  1000 * sim->memConfig().backgroundInterference));
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::BackgroundWorkNs), 1000u);
}

TEST(SimulatorTest, UnmapFreesFramesAndPages)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(8 * kPageSize);
    for (int i = 0; i < 8; ++i)
        sim->write(a + static_cast<Vaddr>(i) * kPageSize);
    const std::size_t freeBefore = sim->memory().node(0).freeFrames();
    sim->unmapRegion(a);
    EXPECT_EQ(sim->space().pageCount(), 0u);
    EXPECT_EQ(sim->memory().node(0).freeFrames(), freeBefore + 8);
}

TEST(SimulatorTest, EvictionAndSwapIn)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    // Isolate and evict by hand.
    sim->policy().onPageFreed(pg);
    sim->evictPage(pg);
    EXPECT_FALSE(pg->resident());
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::Pswpout), 1u);
    // Touching it swaps back in.
    sim->read(a);
    EXPECT_TRUE(pg->resident());
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::Pswpin), 1u);
    EXPECT_EQ(sim->swap().usedSlots(), 0u);
}

TEST(SimulatorTest, MultiPageAccessTouchesEveryPage)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(4 * kPageSize);
    sim->read(a, 3 * kPageSize);
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::PgfaultDram) +
                  sim->vmstat().global(stats::VmItem::PgfaultPm),
              3u);
}

/**
 * The Fig. 4 arrival rule: @p pg sits at the head of @p kind on
 * @p node, PG_active matches the list, and PG_referenced and
 * PagePromote are clear.
 */
void
expectArrivedAtHead(Simulator &sim, const Page *pg, NodeId node,
                    LruListKind kind)
{
    EXPECT_EQ(pg->node(), node);
    EXPECT_EQ(pg->list(), kind);
    EXPECT_EQ(sim.memory().node(node).lists().list(kind).front(), pg);
    EXPECT_EQ(pg->active(), isActiveList(kind));
    EXPECT_FALSE(pg->referenced());
    EXPECT_FALSE(pg->promoteFlag());
}

TEST(SimulatorTest, PromoteAndDemoteHelpers)
{
    auto sim = makeSim();
    const Vaddr a = sim->mmap(2 * kPageSize);
    sim->write(a);
    sim->write(a + kPageSize);
    Page *first = sim->space().lookup(pageNumOf(a));
    Page *pg = sim->space().lookup(pageNumOf(a + kPageSize));
    // Each move commits with PG_referenced and PagePromote set, and
    // the later of two arrivals must take the list head.
    auto move = [&](bool up) {
        for (Page *p : {first, pg}) {
            sim->policy().onPageFreed(p);  // isolate
            p->setReferenced(true);
            p->setPromoteFlag(true);
            ASSERT_TRUE(up ? sim->promotePage(
                                 p, Simulator::ChargeMode::Background)
                           : sim->demotePage(
                                 p, Simulator::ChargeMode::Background));
        }
    };
    move(/*up=*/false);
    EXPECT_EQ(sim->pageTier(pg), TierKind::Pmem);
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::Pgdemote), 2u);
    expectArrivedAtHead(*sim, pg, 1, LruListKind::InactiveAnon);
    move(/*up=*/true);
    EXPECT_EQ(sim->pageTier(pg), TierKind::Dram);
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::PgpromoteSuccess), 2u);
    expectArrivedAtHead(*sim, pg, 0, LruListKind::ActiveAnon);
}


TEST(SimulatorTest, FaultPathMigrationChargesMultiplier)
{
    sim::MachineConfig cfg = tinyTestMachine();
    auto sim = makeSim(cfg);
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    sim->policy().onPageFreed(pg);
    const SimTime base =
        cfg.mem.pageMigrationCost(TierKind::Dram, TierKind::Pmem);
    const SimTime before = sim->now();
    ASSERT_TRUE(sim->demotePage(pg, Simulator::ChargeMode::FaultPath));
    const SimTime charged = sim->now() - before;
    EXPECT_EQ(charged,
              static_cast<SimTime>(
                  cfg.mem.faultPathMigrationMultiplier *
                  static_cast<double>(base)));
}

TEST(SimulatorTest, BackgroundMigrationChargesFixedPortionInline)
{
    sim::MachineConfig cfg = tinyTestMachine();
    auto sim = makeSim(cfg);
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    sim->policy().onPageFreed(pg);
    const SimTime base =
        cfg.mem.pageMigrationCost(TierKind::Dram, TierKind::Pmem);
    const SimTime before = sim->now();
    const auto inlineBefore =
        sim->vmstat().global(stats::VmItem::InlineOverheadNs);
    ASSERT_TRUE(sim->demotePage(pg, Simulator::ChargeMode::Background));
    const SimTime charged = sim->now() - before;
    // Inline part: the TLB-shootdown fixed cost. Background part: the
    // copy, scaled by the interference factor.
    const SimTime expected =
        cfg.mem.migrationFixedCost +
        static_cast<SimTime>((base - cfg.mem.migrationFixedCost) *
                             cfg.mem.backgroundInterference);
    EXPECT_EQ(charged, expected);
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::InlineOverheadNs) -
                  inlineBefore,
              cfg.mem.migrationFixedCost);
}

TEST(SimulatorTest, MetricsWindowIsConfigurable)
{
    sim::MachineConfig cfg = tinyTestMachine();
    cfg.metricsWindow = 5_ms;
    auto sim = makeSim(cfg);
    EXPECT_EQ(sim->metrics().windowLength(), 5_ms);
    const Vaddr a = sim->mmap(kPageSize);
    sim->compute(12_ms);
    sim->read(a);
    EXPECT_EQ(sim->metrics().windows().size(), 3u);  // window idx 2
}

TEST(SimulatorTest, LargeAccessSamplesEvery512Bytes)
{
    sim::MachineConfig cfg = tinyTestMachine();
    cfg.cache.enabled = false;
    auto sim = makeSim(cfg);
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);  // pre-fault
    const auto before = sim->metrics().totalAccesses();
    sim->read(a, 2048);
    EXPECT_EQ(sim->metrics().totalAccesses() - before, 4u);
    sim->read(a, 8);
    EXPECT_EQ(sim->metrics().totalAccesses() - before, 5u);
}

TEST(SimulatorTest, TwoSocketMachineAllocatesAcrossNodes)
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 1_MiB},
                 {TierKind::Dram, 1_MiB},
                 {TierKind::Pmem, 4_MiB},
                 {TierKind::Pmem, 4_MiB}};
    cfg.cache.enabled = false;
    auto sim = makeSim(cfg);
    // Touch more than both DRAM nodes hold: both fill, then PM.
    const Vaddr a = sim->mmap(1024 * kPageSize);
    for (int i = 0; i < 1024; ++i)
        sim->write(a + static_cast<Vaddr>(i) * kPageSize);
    std::size_t perNode[4] = {0, 0, 0, 0};
    sim->space().forEachPage([&](Page *pg) {
        ++perNode[static_cast<std::size_t>(pg->node())];
    });
    EXPECT_GT(perNode[0], 0u);
    EXPECT_GT(perNode[1], 0u);
    EXPECT_GT(perNode[2] + perNode[3], 0u);
}

}  // namespace
}  // namespace sim
}  // namespace mclock
