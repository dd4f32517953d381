/**
 * @file
 * Unit tests for MULTI-CLOCK: every Fig. 4 transition, the kpromoted
 * daemon, and the pressure-driven demotion path.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/units.hh"
#include "core/kpromoted.hh"
#include "core/multiclock.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace core {
namespace {

class MultiClockTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::MachineConfig cfg = sim::tinyTestMachine();
        cfg.cache.enabled = false;  // every access is memory-visible
        sim_ = std::make_unique<sim::Simulator>(cfg);
        auto policy = std::make_unique<MultiClockPolicy>();
        policy_ = policy.get();
        sim_->setPolicy(std::move(policy));
    }

    /** Touch one fresh page and return it (resident in DRAM). */
    Page *
    touchNewPage()
    {
        const Vaddr a = sim_->mmap(kPageSize);
        sim_->read(a);
        return sim_->space().lookup(pageNumOf(a));
    }

    /**
     * Force a page onto the PM node: isolate and demote it, which
     * leaves it on PM's inactive list.
     */
    void
    moveToPmem(Page *pg)
    {
        sim_->memory().node(pg->node()).lists().remove(pg);
        ASSERT_TRUE(sim_->demotePage(
            pg, sim::Simulator::ChargeMode::Background));
        // Drop the accessed bit left over from the faulting touch so
        // each test drives reference state explicitly.
        pg->setPteReferenced(false);
    }

    /**
     * Walk a page onto its node's promote list along the legal Fig. 4
     * path (inactive -> active -> promote, PagePromote set before the
     * final move). The DEBUG_VM checker rejects shortcut entry into
     * the promote list, exactly as mark_page_accessed would never do
     * it in one step.
     */
    void
    moveToPromote(Page *pg)
    {
        auto &lists = sim_->memory().node(pg->node()).lists();
        lists.moveTo(pg, pfra::NodeLists::activeKind(pg->isAnon()));
        pg->setPromoteFlag(true);
        lists.moveTo(pg, pfra::NodeLists::promoteKind(pg->isAnon()));
    }

    sim::Node &dram() { return sim_->memory().node(0); }
    sim::Node &pmem() { return sim_->memory().node(1); }

    Kpromoted
    kpromotedFor(NodeId node)
    {
        return Kpromoted(*policy_, *sim_, node);
    }

    std::unique_ptr<sim::Simulator> sim_;
    MultiClockPolicy *policy_ = nullptr;
};

// --- Page birth (Fig. 4 entry) ---------------------------------------------

TEST_F(MultiClockTest, NewPageStartsInactiveUnreferenced)
{
    Page *pg = touchNewPage();
    EXPECT_EQ(pg->list(), LruListKind::InactiveAnon);
    EXPECT_FALSE(pg->referenced());
    // The faulting access set the PTE accessed bit (hardware).
    EXPECT_TRUE(pg->pteReferenced());
}

// --- Unsupervised transitions, driven by kpromoted scans ----------------------

TEST_F(MultiClockTest, Transition2InactiveUnrefToRef)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    sim_->read(pg->vaddr());  // sets PTE bit
    auto kp = kpromotedFor(1);
    kp.scanInactive(pmem(), true, 64);
    EXPECT_TRUE(pg->referenced());
    EXPECT_EQ(pg->list(), LruListKind::InactiveAnon);
    EXPECT_FALSE(pg->pteReferenced());  // consumed by the rmap walk
}

TEST_F(MultiClockTest, Transition1DecayInactiveRefToUnref)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    pg->setReferenced(true);
    auto kp = kpromotedFor(1);
    kp.scanInactive(pmem(), true, 64);  // no PTE bit set: decay
    EXPECT_FALSE(pg->referenced());
    EXPECT_EQ(pg->list(), LruListKind::InactiveAnon);
}

TEST_F(MultiClockTest, Transition6InactiveRefToActive)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    pg->setReferenced(true);
    sim_->read(pg->vaddr());
    auto kp = kpromotedFor(1);
    kp.scanInactive(pmem(), true, 64);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
    EXPECT_FALSE(pg->referenced());
}

TEST_F(MultiClockTest, Transition7ActiveUnrefToRef)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    pmem().lists().moveTo(pg, pfra::NodeLists::activeKind(true));
    sim_->read(pg->vaddr());
    auto kp = kpromotedFor(1);
    kp.scanActive(pmem(), true, 64);
    EXPECT_TRUE(pg->referenced());
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
}

TEST_F(MultiClockTest, Transition10ActiveRefToPromote)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    pmem().lists().moveTo(pg, pfra::NodeLists::activeKind(true));
    pg->setReferenced(true);
    sim_->read(pg->vaddr());  // referenced again
    auto kp = kpromotedFor(1);
    kp.scanActive(pmem(), true, 64);
    EXPECT_EQ(pg->list(), LruListKind::PromoteAnon);
    EXPECT_TRUE(pg->promoteFlag());
}

TEST_F(MultiClockTest, Transition11PromoteCoolsToActive)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    moveToPromote(pg);
    // Not referenced since selection: recycled to active unreferenced.
    auto kp = kpromotedFor(1);
    const auto promoted = kp.shrinkPromoteList(pmem(), true, 64, false);
    EXPECT_EQ(promoted, 0u);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
    EXPECT_FALSE(pg->promoteFlag());
    EXPECT_FALSE(pg->referenced());
}

TEST_F(MultiClockTest, Transition13PromoteMigratesToDram)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    moveToPromote(pg);
    pg->setReferenced(true);  // still hot
    auto kp = kpromotedFor(1);
    const auto promoted = kp.shrinkPromoteList(pmem(), true, 64, false);
    EXPECT_EQ(promoted, 1u);
    EXPECT_EQ(sim_->pageTier(pg), TierKind::Dram);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
    EXPECT_FALSE(pg->promoteFlag());
    EXPECT_EQ(sim_->vmstat().global(stats::VmItem::PgpromoteSuccess), 1u);
}

TEST_F(MultiClockTest, PromoteOnTopTierRecyclesToActive)
{
    Page *pg = touchNewPage();  // in DRAM
    moveToPromote(pg);
    pg->setReferenced(true);
    auto kp = kpromotedFor(0);
    const auto promoted = kp.shrinkPromoteList(dram(), true, 64, false);
    EXPECT_EQ(promoted, 0u);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
}

TEST_F(MultiClockTest, LockedPromotePageFallsBackToActive)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    moveToPromote(pg);
    pg->setReferenced(true);
    pg->setLocked(true);
    auto kp = kpromotedFor(1);
    const auto promoted = kp.shrinkPromoteList(pmem(), true, 64, false);
    EXPECT_EQ(promoted, 0u);
    EXPECT_EQ(sim_->pageTier(pg), TierKind::Pmem);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
}

// --- Supervised transitions (extended mark_page_accessed) ---------------------

TEST_F(MultiClockTest, SupervisedFirstTouchSetsReferenced)
{
    Page *pg = touchNewPage();
    policy_->onSupervisedAccess(pg);
    EXPECT_TRUE(pg->referenced());
    EXPECT_EQ(pg->list(), LruListKind::InactiveAnon);
}

TEST_F(MultiClockTest, SupervisedSecondTouchActivates)
{
    Page *pg = touchNewPage();
    policy_->onSupervisedAccess(pg);
    policy_->onSupervisedAccess(pg);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
    EXPECT_FALSE(pg->referenced());
}

TEST_F(MultiClockTest, SupervisedFourthTouchMovesToPromote)
{
    Page *pg = touchNewPage();
    for (int i = 0; i < 4; ++i)
        policy_->onSupervisedAccess(pg);
    EXPECT_EQ(pg->list(), LruListKind::PromoteAnon);
    EXPECT_TRUE(pg->promoteFlag());
}

TEST_F(MultiClockTest, Transition12PromoteStaysOnAccess)
{
    Page *pg = touchNewPage();
    for (int i = 0; i < 4; ++i)
        policy_->onSupervisedAccess(pg);
    ASSERT_EQ(pg->list(), LruListKind::PromoteAnon);
    policy_->onSupervisedAccess(pg);  // transition (12)
    EXPECT_EQ(pg->list(), LruListKind::PromoteAnon);
}

// --- End-to-end promotion via the daemon ---------------------------------------

TEST_F(MultiClockTest, HotPmemPageGetsPromotedByDaemon)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    ASSERT_EQ(sim_->pageTier(pg), TierKind::Pmem);
    // Access the page around each kpromoted wake (1 s default): the
    // scans walk it up inactive -> active -> promote -> DRAM.
    for (int second = 0; second < 6; ++second) {
        for (int i = 0; i < 4; ++i) {
            sim_->read(pg->vaddr());
            sim_->compute(200_ms);
        }
        if (sim_->pageTier(pg) == TierKind::Dram)
            break;
    }
    EXPECT_EQ(sim_->pageTier(pg), TierKind::Dram);
    EXPECT_GE(sim_->vmstat().global(stats::VmItem::PgpromoteSuccess), 1u);
}

TEST_F(MultiClockTest, ColdPmemPageStaysInPmem)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    sim_->compute(5_s);  // daemon runs, page never accessed
    EXPECT_EQ(sim_->pageTier(pg), TierKind::Pmem);
    EXPECT_EQ(sim_->vmstat().global(stats::VmItem::PgpromoteSuccess), 0u);
}

// --- Pressure / demotion (paper III-C) --------------------------------------------

TEST_F(MultiClockTest, PressureDemotesColdInactivePages)
{
    // Populate half of DRAM with cold pages (stays above the low
    // watermark, so the allocator does not reclaim on its own).
    const std::size_t frames = dram().totalFrames();
    const Vaddr a = sim_->mmap(frames / 2 * kPageSize);
    for (std::size_t i = 0; i < frames / 2; ++i)
        sim_->write(a + i * kPageSize);
    sim_->space().forEachPage([](Page *pg) {
        pg->setPteReferenced(false);
    });
    // Burn free frames directly to force the node below its watermark.
    Paddr p;
    while (!dram().belowLow())
        ASSERT_TRUE(dram().allocFrame(p));
    policy_->handlePressure(dram());
    EXPECT_TRUE(dram().aboveHigh());
    EXPECT_GT(sim_->vmstat().global(stats::VmItem::Pgdemote), 0u);
    // PM had space.
    EXPECT_EQ(sim_->vmstat().global(stats::VmItem::Pswpout), 0u);
}

TEST_F(MultiClockTest, AllocatorWakesKswapdUnderPressure)
{
    // Touch more pages than DRAM holds: the allocator notices the node
    // dipping below the low watermark and invokes the pressure handler,
    // which demotes cold pages so allocations keep landing in DRAM.
    const std::size_t frames = dram().totalFrames();
    const Vaddr a = sim_->mmap(2 * frames * kPageSize);
    for (std::size_t i = 0; i < 2 * frames; ++i)
        sim_->write(a + i * kPageSize);
    EXPECT_GT(sim_->vmstat().global(stats::VmItem::Pgdemote), 0u);
    EXPECT_FALSE(dram().belowMin());
}

TEST_F(MultiClockTest, PressureStep1DrainsPromoteList)
{
    Page *pg = touchNewPage();
    moveToPmem(pg);
    moveToPromote(pg);
    policy_->handlePressure(pmem());
    // Promote-list pages migrate up under pressure even if unreferenced.
    EXPECT_EQ(sim_->pageTier(pg), TierKind::Dram);
}

TEST_F(MultiClockTest, LowestTierPressureEvictsToStorage)
{
    // Touch more cold pages than DRAM+PM hold: the lowest tier comes
    // under pressure and its handler must write back to block storage.
    const std::size_t total =
        pmem().totalFrames() + dram().totalFrames();
    const Vaddr a = sim_->mmap((total + 64) * kPageSize, true, "big");
    for (std::size_t i = 0; i < total + 64; ++i)
        sim_->write(a + i * kPageSize);
    EXPECT_GT(sim_->vmstat().global(stats::VmItem::Pswpout), 0u);
}

TEST_F(MultiClockTest, FeatureRowMatchesPaper)
{
    const auto row = policy_->features();
    EXPECT_EQ(row.tiering, "MULTI-CLOCK");
    EXPECT_EQ(row.tracking, "Reference Bit");
    EXPECT_EQ(row.promotion, "Recency+Frequency");
    EXPECT_EQ(row.demotion, "Recency");
}


// --- Calibration mechanisms ---------------------------------------------------

TEST_F(MultiClockTest, PromoteBudgetCapsMigrationsPerWake)
{
    // Queue more hot promote-list pages than one wake may migrate.
    const std::size_t queued = MultiClockPolicy::kPromoteBudget + 16;
    const Vaddr a = sim_->mmap(queued * kPageSize);
    for (std::size_t i = 0; i < queued; ++i)
        sim_->write(a + i * kPageSize);
    sim_->space().forEachPage([&](Page *pg) {
        moveToPmem(pg);
        moveToPromote(pg);
        pg->setReferenced(true);
    });
    ASSERT_EQ(pmem().lists().promoteSize(true), queued);
    kpromotedFor(1).run(sim_->now());
    EXPECT_EQ(sim_->vmstat().global(stats::VmItem::PgpromoteSuccess),
              MultiClockPolicy::kPromoteBudget);
    // The remainder stays selected on the promote list.
    EXPECT_EQ(pmem().lists().promoteSize(true),
              queued - MultiClockPolicy::kPromoteBudget);
}

TEST_F(MultiClockTest, DemoteForPromoteBackpressureOnWarmDram)
{
    // Fill DRAM completely with *warm* pages (PTE bits set), then queue
    // a hot PM page for promotion: with nothing cold to demote, the
    // promotion must stall rather than churn warm pages out.
    const std::size_t frames = dram().totalFrames();
    const Vaddr a = sim_->mmap(2 * frames * kPageSize);
    for (std::size_t i = 0; i < 2 * frames; ++i)
        sim_->write(a + i * kPageSize);
    Paddr p;
    while (dram().allocFrame(p)) {
    }
    sim_->space().forEachPage([&](Page *pg) {
        pg->setPteReferenced(true);  // everything warm
    });
    Page *hot = nullptr;
    sim_->space().forEachPage([&](Page *pg) {
        if (!hot && sim_->pageTier(pg) == TierKind::Pmem)
            hot = pg;
    });
    ASSERT_NE(hot, nullptr);
    moveToPromote(hot);
    hot->setReferenced(true);

    const auto demotionsBefore = sim_->vmstat().global(stats::VmItem::Pgdemote);
    auto kp = kpromotedFor(1);
    const auto promoted = kp.shrinkPromoteList(
        pmem(), true, pmem().lists().promoteSize(true),
        /*underPressure=*/false);
    EXPECT_EQ(promoted, 0u);
    // demoteFromTier scanned but found only warm pages; at most the
    // second-chance machinery moved state around, never wholesale
    // demotion of the warm set.
    EXPECT_LE(sim_->vmstat().global(stats::VmItem::Pgdemote) -
                  demotionsBefore,
              2u);
    EXPECT_EQ(sim_->pageTier(hot), TierKind::Pmem);
    EXPECT_EQ(hot->list(), LruListKind::ActiveAnon);  // fell back
}

TEST_F(MultiClockTest, DemoteFromTierDemotesColdPages)
{
    const std::size_t frames = dram().totalFrames();
    const Vaddr a = sim_->mmap(frames / 2 * kPageSize);
    for (std::size_t i = 0; i < frames / 2; ++i)
        sim_->write(a + i * kPageSize);
    sim_->space().forEachPage([](Page *pg) {
        pg->setPteReferenced(false);
    });
    // Let the pages age past the idle floor (2 scan intervals).
    sim_->compute(3_s);
    const std::size_t demoted =
        policy_->demoteFromTier(TierKind::Dram, 10);
    EXPECT_EQ(demoted, 10u);
    EXPECT_EQ(sim_->vmstat().global(stats::VmItem::Pgdemote), 10u);
}

}  // namespace
}  // namespace core
}  // namespace mclock
