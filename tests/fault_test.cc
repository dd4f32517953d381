/**
 * @file
 * Tests for the deterministic migration FaultInjector and the
 * transactional migration engine built on it: decision determinism,
 * the fixed-draw monotonicity contract, persistent poisoning, clean
 * rollback of aborted transactions, retry-with-backoff, promotion
 * throttling (graceful degradation).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/units.hh"
#include "policies/static_tiering.hh"
#include "sim/fault_injector.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "stats/tracepoint.hh"
#include "stats/vmstat.hh"
#include "vm/page.hh"

using namespace mclock;
using sim::FaultConfig;
using sim::FaultDecision;
using sim::FaultInjector;
using sim::FaultPhase;
using stats::VmItem;

namespace {

// --- FaultInjector decisions ----------------------------------------------

TEST(FaultInjectorTest, DisabledConsumesNothingAndNeverInjects)
{
    FaultConfig cfg;  // enabled = false
    cfg.copyFailProb = 1.0;
    FaultInjector inj(cfg, 42);
    for (PageNum vpn = 0; vpn < 10; ++vpn)
        EXPECT_FALSE(inj.nextTransaction(vpn, 0).injected());
    EXPECT_EQ(inj.transactions(), 0u);
    EXPECT_EQ(inj.injected(), 0u);
}

TEST(FaultInjectorTest, SameSeedsSameDecisions)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.copyFailProb = 0.2;
    cfg.shootdownFailProb = 0.1;
    cfg.remapFailProb = 0.1;
    cfg.persistentProb = 0.3;
    FaultInjector a(cfg, 42);
    FaultInjector b(cfg, 42);
    std::vector<FaultDecision> decisions;
    for (PageNum vpn = 0; vpn < 300; ++vpn) {
        const FaultDecision da = a.nextTransaction(vpn, 1);
        const FaultDecision db = b.nextTransaction(vpn, 1);
        EXPECT_EQ(da.failPhase, db.failPhase) << vpn;
        EXPECT_EQ(da.persistent, db.persistent) << vpn;
        decisions.push_back(da);
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 0u);
    EXPECT_LT(a.injected(), a.transactions());

    // A different machine seed produces an independent stream.
    FaultInjector c(cfg, 43);
    std::uint64_t diverged = 0;
    for (PageNum vpn = 0; vpn < 300; ++vpn) {
        const FaultDecision dc = c.nextTransaction(vpn, 1);
        if (dc.failPhase != decisions[vpn].failPhase)
            ++diverged;
    }
    EXPECT_GT(diverged, 0u);
}

TEST(FaultInjectorTest, ZeroRatesNeverInject)
{
    FaultConfig cfg;
    cfg.enabled = true;  // enabled but all probabilities zero
    FaultInjector inj(cfg, 42);
    for (PageNum vpn = 0; vpn < 100; ++vpn)
        EXPECT_FALSE(inj.nextTransaction(vpn, 1).injected());
    EXPECT_EQ(inj.transactions(), 100u);
    EXPECT_EQ(inj.injected(), 0u);
}

TEST(FaultInjectorTest, TierMultiplierScalesPerDestinationTier)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.copyFailProb = 0.5;
    cfg.tierErrorMultiplier = {0.0, 2.0};  // tier 0 immune, tier 1 certain
    FaultInjector inj(cfg, 42);
    for (PageNum vpn = 0; vpn < 50; ++vpn)
        EXPECT_FALSE(inj.nextTransaction(vpn, 0).injected()) << vpn;
    for (PageNum vpn = 100; vpn < 150; ++vpn) {
        const FaultDecision d = inj.nextTransaction(vpn, 1);
        EXPECT_EQ(d.failPhase, FaultPhase::Copy) << vpn;
    }
    // Ranks beyond the vector default to 1.0 (no crash, normal rate).
    (void)inj.nextTransaction(999, 7);
}

TEST(FaultInjectorTest, PersistentFailurePoisonsThePage)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.copyFailProb = 1.0;
    cfg.persistentProb = 1.0;
    FaultInjector inj(cfg, 42);
    EXPECT_FALSE(inj.poisoned(7));
    const FaultDecision first = inj.nextTransaction(7, 0);
    EXPECT_EQ(first.failPhase, FaultPhase::Copy);
    EXPECT_TRUE(first.persistent);
    EXPECT_TRUE(inj.poisoned(7));
    EXPECT_EQ(inj.poisonedPages(), 1u);
    // Every later attempt on the poisoned page fails the copy phase,
    // independent of the dice.
    const FaultDecision again = inj.nextTransaction(7, 0);
    EXPECT_EQ(again.failPhase, FaultPhase::Copy);
    EXPECT_TRUE(again.persistent);
}

TEST(FaultInjectorTest, RaisingTheRateOnlyGrowsTheFailingSet)
{
    // The fixed-draw contract: the same seed at a higher rate must fail
    // a superset of the transactions the lower rate failed.
    const double rates[] = {0.0, 0.1, 0.2, 0.4, 0.8, 1.0};
    std::vector<std::vector<bool>> failing;
    for (const double rate : rates) {
        FaultConfig cfg;
        cfg.enabled = true;
        cfg.copyFailProb = rate;
        cfg.shootdownFailProb = rate / 2;
        cfg.remapFailProb = rate / 2;
        FaultInjector inj(cfg, 42);
        std::vector<bool> fails;
        for (PageNum vpn = 0; vpn < 400; ++vpn)
            fails.push_back(inj.nextTransaction(vpn, 1).injected());
        failing.push_back(std::move(fails));
    }
    for (std::size_t r = 1; r < failing.size(); ++r) {
        for (std::size_t i = 0; i < failing[r].size(); ++i) {
            if (failing[r - 1][i]) {
                EXPECT_TRUE(failing[r][i])
                    << "rate " << rates[r] << " lost failure " << i;
            }
        }
    }
}

// --- Transactional engine through the Simulator ---------------------------

std::unique_ptr<sim::Simulator>
makeFaultSim(const FaultConfig &faults)
{
    sim::MachineConfig cfg = sim::tinyTestMachine();
    cfg.faults = faults;
    auto s = std::make_unique<sim::Simulator>(cfg);
    s->setPolicy(std::make_unique<policies::StaticTieringPolicy>());
    return s;
}

/**
 * Park @p want pages on the PM node while leaving DRAM mostly free:
 * fill DRAM with a filler region, spill the target region to PM, then
 * unmap the filler. Returns the isolated PM pages (static tiering never
 * migrates, so with no faults drawn yet the setup is identical across
 * fault configs).
 */
std::vector<Page *>
isolatedPmPages(sim::Simulator &sim, std::size_t want)
{
    const std::size_t dramFrames = sim.memory().node(0).totalFrames();
    const Vaddr filler =
        sim.mmap(dramFrames * kPageSize, true, "filler");
    for (std::size_t i = 0; i < dramFrames; ++i)
        sim.write(filler + i * kPageSize);
    const Vaddr target = sim.mmap(want * kPageSize, true, "target");
    for (std::size_t i = 0; i < want; ++i)
        sim.write(target + i * kPageSize);
    sim.unmapRegion(filler);
    std::vector<Page *> out;
    for (std::size_t i = 0; i < want; ++i) {
        Page *pg = sim.space().lookup(pageNumOf(target) + i);
        EXPECT_NE(pg, nullptr);
        if (pg && sim.pageTier(pg) == TierKind::Pmem) {
            sim.policy().onPageFreed(pg);  // isolate
            out.push_back(pg);
        }
    }
    EXPECT_FALSE(out.empty());
    return out;
}

TEST(TransactionalMigration, AbortRollsBackCleanly)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.shootdownFailProb = 1.0;  // post-copy abort -> rollback
    faults.maxRetries = 0;
    auto sim = makeFaultSim(faults);
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    ASSERT_NE(pg, nullptr);
    ASSERT_EQ(pg->node(), 0);
    sim->policy().onPageFreed(pg);

    const std::size_t pmFreeBefore =
        sim->memory().node(1).freeFrames();
    const Paddr paddrBefore = pg->paddr();
    EXPECT_FALSE(sim->migratePage(
        pg, 1, sim::Simulator::ChargeMode::Inline));

    // The page never moved and the reserved PM frame was released.
    EXPECT_TRUE(pg->resident());
    EXPECT_EQ(pg->node(), 0);
    EXPECT_EQ(pg->paddr(), paddrBefore);
    EXPECT_EQ(sim->memory().node(1).freeFrames(), pmFreeBefore);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgdemote), 0u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgmigrateAbort), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgmigrateRollback), 1u);
    // The abort surfaced as a tracepoint with the failing phase.
    bool sawAbort = false;
    for (const auto &ev : sim->trace().events()) {
        if (ev.type == stats::TraceEventType::MigrationAbort) {
            sawAbort = true;
            EXPECT_EQ(ev.arg1, static_cast<std::uint64_t>(
                                   FaultPhase::Shootdown));
        }
    }
    EXPECT_TRUE(sawAbort);
}

TEST(TransactionalMigration, CopyAbortIsNotARollback)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.copyFailProb = 1.0;  // pre-copy-completion abort
    faults.maxRetries = 0;
    auto sim = makeFaultSim(faults);
    auto pages = isolatedPmPages(*sim, 1);
    ASSERT_FALSE(pages.empty());
    EXPECT_FALSE(sim->promotePage(
        pages[0], sim::Simulator::ChargeMode::Background));
    EXPECT_EQ(sim->vmstat().global(VmItem::PgmigrateAbort), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgmigrateRollback), 0u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgpromoteFail), 1u);
}

TEST(TransactionalMigration, RetryRecoversTransientAborts)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.copyFailProb = 0.5;
    faults.persistentProb = 0.0;
    faults.maxRetries = 4;
    auto sim = makeFaultSim(faults);
    auto pages = isolatedPmPages(*sim, 24);
    std::size_t promoted = 0;
    for (Page *pg : pages) {
        if (sim->promotePage(pg,
                             sim::Simulator::ChargeMode::Background))
            ++promoted;
    }
    // At 50% per-transaction failure with 4 retries nearly every
    // promotion eventually lands, and some needed a retry.
    EXPECT_GT(promoted, pages.size() / 2);
    EXPECT_GT(sim->vmstat().global(VmItem::PgmigrateRetry), 0u);
    EXPECT_GT(sim->vmstat().global(VmItem::PgmigrateAbort), 0u);
    EXPECT_EQ(sim->vmstat().global(stats::VmItem::PgpromoteSuccess), promoted);
}

TEST(TransactionalMigration, PersistentFaultIsNotRetried)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.copyFailProb = 1.0;
    faults.persistentProb = 1.0;
    faults.maxRetries = 5;
    auto sim = makeFaultSim(faults);
    auto pages = isolatedPmPages(*sim, 1);
    ASSERT_FALSE(pages.empty());
    EXPECT_FALSE(sim->promotePage(
        pages[0], sim::Simulator::ChargeMode::Background));
    // One transaction, no retries: the failure recurs by definition.
    EXPECT_EQ(sim->faultInjector().transactions(), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgmigrateRetry), 0u);
    EXPECT_TRUE(sim->faultInjector().poisoned(pages[0]->vpn()));
}

TEST(TransactionalMigration, ThrottleEngagesAndExpires)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.copyFailProb = 1.0;
    faults.persistentProb = 0.0;
    faults.maxRetries = 0;
    faults.throttleThreshold = 2;
    faults.throttleCooldownNs = 1'000'000ull;
    auto sim = makeFaultSim(faults);
    auto pages = isolatedPmPages(*sim, 4);
    ASSERT_GE(pages.size(), 4u);
    const NodeId pmNode = pages[0]->node();

    EXPECT_FALSE(sim->promotionThrottled(pmNode));
    EXPECT_FALSE(sim->promotePage(
        pages[0], sim::Simulator::ChargeMode::Background));
    EXPECT_FALSE(sim->promotionThrottled(pmNode));
    EXPECT_FALSE(sim->promotePage(
        pages[1], sim::Simulator::ChargeMode::Background));
    // Second consecutive abort hit the threshold.
    EXPECT_TRUE(sim->promotionThrottled(pmNode));
    EXPECT_EQ(sim->vmstat().global(VmItem::PgpromoteThrottled), 1u);

    // While throttled, promotions are refused before any transaction.
    const std::uint64_t txBefore = sim->faultInjector().transactions();
    EXPECT_FALSE(sim->promotePage(
        pages[2], sim::Simulator::ChargeMode::Background));
    EXPECT_EQ(sim->faultInjector().transactions(), txBefore);

    // The cooldown expires with simulated time.
    sim->compute(2_ms);
    EXPECT_FALSE(sim->promotionThrottled(pmNode));
    EXPECT_FALSE(sim->promotePage(
        pages[3], sim::Simulator::ChargeMode::Background));
    EXPECT_EQ(sim->faultInjector().transactions(), txBefore + 1);
}

TEST(TransactionalMigration, SuccessResetsTheThrottleStreak)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.copyFailProb = 0.0;  // nothing actually fails
    faults.throttleThreshold = 1;
    auto sim = makeFaultSim(faults);
    auto pages = isolatedPmPages(*sim, 2);
    ASSERT_GE(pages.size(), 2u);
    EXPECT_TRUE(sim->promotePage(
        pages[0], sim::Simulator::ChargeMode::Background));
    EXPECT_FALSE(sim->promotionThrottled(1));
    EXPECT_EQ(sim->vmstat().global(VmItem::PgpromoteThrottled), 0u);
}

TEST(TransactionalMigration, PromotionSuccessMonotoneInFailureRate)
{
    // The acceptance sweep: an identical promotion workload at rising
    // injected failure rates must show non-increasing success counts
    // (no retries, no persistence, so each call is one transaction and
    // the injector's fixed-draw contract applies directly).
    const double rates[] = {0.0, 0.1, 0.2, 0.4, 0.8, 1.0};
    std::vector<std::uint64_t> successes;
    for (const double rate : rates) {
        FaultConfig faults;
        faults.enabled = true;
        faults.copyFailProb = rate;
        faults.shootdownFailProb = rate / 2;
        faults.remapFailProb = rate / 2;
        faults.persistentProb = 0.0;
        faults.maxRetries = 0;
        faults.throttleThreshold = 1u << 30;  // never throttle
        auto sim = makeFaultSim(faults);
        auto pages = isolatedPmPages(*sim, 32);
        for (Page *pg : pages)
            sim->promotePage(pg, sim::Simulator::ChargeMode::Background);
        successes.push_back(
            sim->vmstat().global(stats::VmItem::PgpromoteSuccess));
    }
    for (std::size_t i = 1; i < successes.size(); ++i)
        EXPECT_LE(successes[i], successes[i - 1]) << "rate index " << i;
    EXPECT_GT(successes.front(), 0u);   // everything lands at rate 0
    EXPECT_EQ(successes.back(), 0u);    // nothing lands at rate 1
    EXPECT_LT(successes.back(), successes.front());
}

}  // namespace
