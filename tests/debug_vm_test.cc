/**
 * @file
 * Violation-injection tests for the MCLOCK_DEBUG_VM checker: each
 * invariant class is deliberately broken through the test-only
 * backdoor (or a direct hook call carrying corrupted page state) and
 * the test asserts the checker fires with the expected ViolationCode.
 * Built only when MCLOCK_DEBUG_VM is ON (see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "debug/test_backdoor.hh"
#include "debug/vm_checker.hh"
#include "pfra/lru_lists.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/sharded.hh"
#include "sim/simulator.hh"
#include "vm/address_space.hh"
#include "vm/page.hh"

namespace mclock {
namespace debug {
namespace {

/** Standalone list + checker rig with a collecting handler. */
class DebugVmTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        checker_.setHandler(
            [this](const Violation &v) { seen_.push_back(v); });
        lists_.attachStats(nullptr, nullptr, /*node=*/0);
        lists_.attachChecker(&checker_);
    }

    /** A resident anonymous page placed on node 0. */
    Page *
    makePage(PageNum vpn, bool anon = true, NodeId node = 0)
    {
        pages_.push_back(std::make_unique<Page>(&space_, vpn, anon));
        Page *pg = pages_.back().get();
        pg->placeOn(node, vpn << kPageShift);
        return pg;
    }

    bool
    sawCode(ViolationCode code) const
    {
        for (const auto &v : seen_)
            if (v.code == code)
                return true;
        return false;
    }

    AddressSpace space_;
    pfra::NodeLists lists_;
    VmChecker checker_;
    std::vector<Violation> seen_;
    std::vector<std::unique_ptr<Page>> pages_;
};

// --- One test per invariant class ----------------------------------------

TEST_F(DebugVmTest, DoubleAddFires)
{
    Page *pg = makePage(1);
    lists_.add(pg, LruListKind::InactiveAnon);
    ASSERT_TRUE(seen_.empty());
    // A second add while still on a list; reported before any state is
    // touched (the NodeLists assert would abort first on the real
    // path, so drive the hook directly).
    checker_.onListAdd(pg, LruListKind::InactiveFile, 0);
    EXPECT_TRUE(sawCode(ViolationCode::DoubleAdd));
}

TEST_F(DebugVmTest, RemoveOffListFires)
{
    Page *pg = makePage(2);
    checker_.onListRemove(pg, 0);
    EXPECT_TRUE(sawCode(ViolationCode::RemoveOffList));
}

TEST_F(DebugVmTest, IllegalTransitionFires)
{
    Page *pg = makePage(3);
    lists_.add(pg, LruListKind::InactiveAnon);
    // Inactive -> promote skips the active rung: promote-list entry is
    // only legal from the active scan (Fig. 4 transition 10).
    pg->setPromoteFlag(true);
    lists_.moveTo(pg, LruListKind::PromoteAnon);
    EXPECT_TRUE(sawCode(ViolationCode::IllegalTransition));
    EXPECT_FALSE(sawCode(ViolationCode::FlagMismatch));
}

TEST_F(DebugVmTest, BadReentryFires)
{
    Page *pg = makePage(4);
    // A fresh (never-isolated) page must start inactive, not active.
    lists_.add(pg, LruListKind::ActiveAnon);
    EXPECT_TRUE(sawCode(ViolationCode::BadReentry));
}

TEST_F(DebugVmTest, FamilyMismatchFires)
{
    Page *pg = makePage(5, /*anon=*/true);
    lists_.add(pg, LruListKind::InactiveFile);
    EXPECT_TRUE(sawCode(ViolationCode::FamilyMismatch));
}

TEST_F(DebugVmTest, FlagMismatchFires)
{
    Page *pg = makePage(6);
    // Unevictable-list entry without PG_unevictable: no pin evidence.
    lists_.add(pg, LruListKind::Unevictable);
    EXPECT_TRUE(sawCode(ViolationCode::FlagMismatch));
}

TEST_F(DebugVmTest, NodeMismatchFires)
{
    Page *pg = makePage(7, /*anon=*/true, /*node=*/1);
    // Node 0's lists, but the page's frame is on node 1.
    lists_.add(pg, LruListKind::InactiveAnon);
    EXPECT_TRUE(sawCode(ViolationCode::NodeMismatch));
}

TEST_F(DebugVmTest, NonResidentOnListFires)
{
    Page *pg = makePage(8);
    lists_.add(pg, LruListKind::InactiveAnon);
    ASSERT_TRUE(seen_.empty());
    // Corruption: the frame vanishes while the page stays listed.
    TestBackdoor::fakeUnplace(pg);
    std::vector<Violation> sink;
    checker_.validateList(lists_.list(LruListKind::InactiveAnon),
                          LruListKind::InactiveAnon, 0, &sink);
    ASSERT_FALSE(sink.empty());
    bool found = false;
    for (const auto &v : sink)
        found |= v.code == ViolationCode::NonResidentOnList;
    EXPECT_TRUE(found);
}

TEST_F(DebugVmTest, ShadowDivergenceFires)
{
    Page *pg = makePage(9);
    lists_.add(pg, LruListKind::InactiveAnon);
    ASSERT_TRUE(seen_.empty());
    // Out-of-band corruption: the tag changes, no list call happened.
    TestBackdoor::corruptListTag(pg, LruListKind::ActiveAnon);
    std::vector<Violation> sink;
    checker_.validateList(lists_.list(LruListKind::InactiveAnon),
                          LruListKind::InactiveAnon, 0, &sink);
    ASSERT_FALSE(sink.empty());
    EXPECT_EQ(sink.front().code, ViolationCode::ShadowDivergence);
}

TEST_F(DebugVmTest, PoisonedPromoteFires)
{
    // Poison a page through the injector's real mechanism: a certain
    // persistent copy failure on its first transaction.
    sim::FaultConfig fcfg;
    fcfg.enabled = true;
    fcfg.copyFailProb = 1.0;
    fcfg.persistentProb = 1.0;
    sim::FaultInjector faults(fcfg, /*machineSeed=*/7);
    Page *pg = makePage(10);
    const auto fd = faults.nextTransaction(pg->vpn(), /*dstTier=*/0);
    ASSERT_TRUE(fd.injected() && fd.persistent);
    ASSERT_TRUE(faults.poisoned(pg->vpn()));

    checker_.bindFaults(&faults);
    // An upward commit (tier 1 -> tier 0) of the poisoned page.
    checker_.onMigrationCommit(pg, /*srcTier=*/1, /*dstTier=*/0);
    EXPECT_TRUE(sawCode(ViolationCode::PoisonedPromote));
}

TEST_F(DebugVmTest, LockedRemapFires)
{
    Page *pg = makePage(11);
    pg->setLocked(true);
    checker_.onMigrationPhase(pg, sim::FaultPhase::Remap, /*dst=*/0);
    EXPECT_TRUE(sawCode(ViolationCode::LockedRemap));
}

TEST_F(DebugVmTest, ListCorruptionFires)
{
    Page *a = makePage(12);
    Page *b = makePage(13);
    Page *c = makePage(14);
    lists_.add(a, LruListKind::InactiveAnon);
    lists_.add(b, LruListKind::InactiveAnon);
    lists_.add(c, LruListKind::InactiveAnon);
    ASSERT_TRUE(seen_.empty());
    // Sever the middle page: neighbours skip it, bookkeeping still
    // claims three elements.
    TestBackdoor::severLinks(b);
    std::vector<Violation> sink;
    checker_.validateList(lists_.list(LruListKind::InactiveAnon),
                          LruListKind::InactiveAnon, 0, &sink);
    ASSERT_FALSE(sink.empty());
    bool found = false;
    for (const auto &v : sink)
        found |= v.code == ViolationCode::ListCorruption;
    EXPECT_TRUE(found);
}

// --- Legal-path behaviour -------------------------------------------------

TEST_F(DebugVmTest, LegalLifecycleStaysClean)
{
    Page *pg = makePage(20);
    lists_.add(pg, LruListKind::InactiveAnon);       // fresh fault-in
    lists_.moveTo(pg, LruListKind::ActiveAnon);      // activation
    pg->setPromoteFlag(true);
    lists_.moveTo(pg, LruListKind::PromoteAnon);     // selection
    pg->setPromoteFlag(false);
    lists_.moveTo(pg, LruListKind::ActiveAnon);      // cooled off
    lists_.moveTo(pg, LruListKind::InactiveAnon);    // deactivation
    lists_.rotateToFront(pg);                        // second chance
    lists_.remove(pg);                               // isolation
    lists_.add(pg, LruListKind::InactiveAnon);       // failed attempt
    EXPECT_TRUE(seen_.empty()) << seen_.front().detail;
    EXPECT_GT(checker_.checksRun(), 0u);
    EXPECT_EQ(checker_.violationCount(), 0u);
}

TEST_F(DebugVmTest, PromotionArrivalMustBeActive)
{
    Page *pg = makePage(21);
    lists_.add(pg, LruListKind::InactiveAnon);
    lists_.remove(pg);
    // Committed upward migration: the arrival list must be active.
    checker_.onMigrationCommit(pg, /*srcTier=*/1, /*dstTier=*/0);
    lists_.add(pg, LruListKind::InactiveAnon);
    EXPECT_TRUE(sawCode(ViolationCode::BadReentry));
}

TEST_F(DebugVmTest, DemotionArrivalMustBeInactive)
{
    Page *pg = makePage(22);
    lists_.add(pg, LruListKind::InactiveAnon);
    lists_.moveTo(pg, LruListKind::ActiveAnon);
    lists_.remove(pg);
    checker_.onMigrationCommit(pg, /*srcTier=*/0, /*dstTier=*/1);
    lists_.add(pg, LruListKind::ActiveAnon);
    EXPECT_TRUE(sawCode(ViolationCode::BadReentry));
}

TEST_F(DebugVmTest, ViolationDumpCarriesStateHistory)
{
    Page *pg = makePage(23);
    lists_.add(pg, LruListKind::InactiveAnon);
    lists_.moveTo(pg, LruListKind::ActiveAnon);
    checker_.onListAdd(pg, LruListKind::ActiveAnon, 0);  // double add
    ASSERT_FALSE(seen_.empty());
    const std::string dump = checker_.formatDump(seen_.front());
    EXPECT_NE(dump.find("double_add"), std::string::npos) << dump;
    EXPECT_NE(dump.find("state history"), std::string::npos) << dump;
    EXPECT_NE(dump.find("add none -> inactive_anon"), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("move inactive_anon -> active_anon"),
              std::string::npos)
        << dump;
}

TEST_F(DebugVmTest, DestroyedPageForgetsShadowState)
{
    Page *pg = makePage(24);
    lists_.add(pg, LruListKind::InactiveAnon);
    lists_.remove(pg);
    checker_.onPageDestroyed(pg);
    // The same address recycled as a new page starts Fresh: an
    // inactive add is legal again and the stale Isolated context is
    // gone.
    lists_.add(pg, LruListKind::InactiveAnon);
    EXPECT_TRUE(seen_.empty());
}

// --- Lockdep assertions in IntrusiveList itself --------------------------

using DebugVmDeathTest = DebugVmTest;

TEST_F(DebugVmDeathTest, CorruptedEraseDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Page *a = makePage(30);
    Page *b = makePage(31);
    lists_.add(a, LruListKind::InactiveAnon);
    lists_.add(b, LruListKind::InactiveAnon);
    TestBackdoor::severLinks(a);
    // __list_del_entry_valid: erasing an entry whose neighbours no
    // longer point back must panic, not corrupt the neighbours.
    EXPECT_DEATH(lists_.list(LruListKind::InactiveAnon).erase(a),
                 "corrupted list");
}

// --- Whole-simulator integration -----------------------------------------

TEST(DebugVmSimTest, MultiClockRunIsViolationFree)
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 2_MiB}, {TierKind::Pmem, 8_MiB}};
    sim::Simulator sim(cfg);
    policies::PolicyOptions opts;
    opts.scanInterval = 4_ms;
    sim.setPolicy(policies::makePolicy("multiclock", opts));

    // Enough traffic to exercise activation, selection, promotion,
    // demotion, pressure, and eviction. The default handler would
    // panic on any violation; count checks to prove coverage.
    const Vaddr base = sim.mmap(6_MiB);
    for (int round = 0; round < 50; ++round) {
        for (Vaddr off = 0; off < 6_MiB; off += 4 * kPageSize)
            sim.readSupervised(base + off);
        for (Vaddr off = 0; off < 1_MiB; off += kPageSize)
            sim.writeSupervised(base + off);
        sim.compute(8_ms);
    }
    EXPECT_GT(sim.vmChecker().checksRun(), 0u);
    EXPECT_EQ(sim.vmChecker().violationCount(), 0u);
    sim.unmapRegion(base);
    EXPECT_EQ(sim.vmChecker().violationCount(), 0u);
}

TEST(DebugVmSimTest, ShardedRunIsViolationFree)
{
    // The sharded runtime drives each sub-simulator from a worker
    // thread; every shard's checker must stay silent and the
    // per-checker coverage counters must advance on all shards.
    sim::MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 4_MiB}, {TierKind::Pmem, 16_MiB}};
    sim::ShardOptions sopts;
    sopts.shards = 4;
    sopts.workers = 4;
    sim::ShardedSimulator host(whole, sopts);

    policies::PolicyOptions opts;
    opts.scanInterval = 4_ms;
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("multiclock", opts));
        bases.push_back(host.shard(s).mmap(3_MiB));
    }
    host.run([&](sim::Simulator &sim, unsigned s, std::uint64_t epoch) {
        for (Vaddr off = 0; off < 3_MiB; off += 4 * kPageSize)
            sim.readSupervised(bases[s] + off);
        for (Vaddr off = 0; off < 512_KiB; off += kPageSize)
            sim.writeSupervised(bases[s] + off);
        sim.compute(8_ms);
        return epoch < 10;
    });
    for (unsigned s = 0; s < host.shards(); ++s) {
        EXPECT_GT(host.shard(s).vmChecker().checksRun(), 0u) << s;
        EXPECT_EQ(host.shard(s).vmChecker().violationCount(), 0u) << s;
    }
}

}  // namespace
}  // namespace debug
}  // namespace mclock
