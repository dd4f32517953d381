/**
 * @file
 * Property-based tests: system-wide invariants checked over random
 * operation sequences and parameterized across every tiering policy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "harness/invariants.hh"
#include "mem/cache.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace {

/**
 * Drive a random zipfian workload with phase shifts under a policy and
 * then check global invariants.
 */
class PolicyInvariantTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    runRandomWorkload(sim::Simulator &sim, std::uint64_t accesses,
                      std::uint64_t seed)
    {
        Rng rng(seed);
        auto &space = sim.space();
        const std::size_t totalFrames =
            sim.memory().tierFrames(TierKind::Dram) +
            sim.memory().tierFrames(TierKind::Pmem);
        // Footprint ~60% of total memory so demotion paths engage
        // without exhausting swap-free configurations.
        const std::size_t pages = totalFrames * 6 / 10;
        const Vaddr base = sim.mmap(pages * kPageSize);
        workloads::ZipfianGenerator zipf(pages, 0.9);
        std::uint64_t phaseOffset = 0;
        for (std::uint64_t i = 0; i < accesses; ++i) {
            if (i % (accesses / 4 + 1) == 0) {
                // Phase change: rotate which pages are hot.
                phaseOffset = rng.nextRange(pages);
            }
            const std::uint64_t idx =
                (zipf.next(rng) + phaseOffset) % pages;
            const Vaddr va = base + idx * kPageSize +
                             (rng.next64() & (kPageSize - 64));
            if (rng.nextBool(0.3))
                sim.write(va, 8);
            else
                sim.read(va, 8);
            if (i % 64 == 0)
                sim.compute(100_us);
        }
        (void)space;
    }

    /** Frame accounting must balance on every node. */
    void
    checkFrameConservation(sim::Simulator &sim)
    {
        std::vector<std::size_t> residentPerNode(
            sim.memory().numNodes(), 0);
        sim.space().forEachPage([&](Page *pg) {
            if (pg->resident())
                ++residentPerNode[static_cast<std::size_t>(pg->node())];
        });
        sim.memory().forEachNode([&](sim::Node &node) {
            EXPECT_EQ(node.usedFrames(),
                      residentPerNode[static_cast<std::size_t>(
                          node.id())])
                << "node " << node.id();
        });
    }

    /** Every resident page sits on exactly one list of its own node. */
    void
    checkListMembership(sim::Simulator &sim)
    {
        std::size_t onLists = 0;
        sim.memory().forEachNode([&](sim::Node &node) {
            onLists += node.lists().totalPages();
        });
        std::size_t resident = 0;
        sim.space().forEachPage([&](Page *pg) {
            if (pg->resident()) {
                ++resident;
                EXPECT_TRUE(pg->onLru()) << "resident page off-LRU";
            } else {
                EXPECT_FALSE(pg->onLru());
            }
        });
        EXPECT_EQ(onLists, resident);
    }

    /**
     * The shared invariant suite the experiment harness runs after
     * every scenario unit (frame conservation, single residency,
     * occupancy <= capacity, list discipline, promote-flag evidence).
     * Running it here too keeps the two checkers from drifting apart.
     */
    void
    checkSharedInvariants(sim::Simulator &sim)
    {
        const auto violations = harness::collectViolations(sim);
        for (const auto &v : violations)
            ADD_FAILURE() << "harness invariant: " << v;
    }

    /** List tags must match the node's list that holds the page. */
    void
    checkListTagsConsistent(sim::Simulator &sim)
    {
        sim.memory().forEachNode([&](sim::Node &node) {
            for (int k = 1; k < kNumLruLists; ++k) {
                const auto kind = static_cast<LruListKind>(k);
                auto &list = node.lists().list(kind);
                for (Page *pg : list) {
                    EXPECT_EQ(pg->list(), kind);
                    EXPECT_EQ(pg->node(), node.id());
                    // Anonymity must match the list family.
                    if (kind != LruListKind::Unevictable) {
                        const bool anonList =
                            kind == LruListKind::InactiveAnon ||
                            kind == LruListKind::ActiveAnon ||
                            kind == LruListKind::PromoteAnon;
                        EXPECT_EQ(pg->isAnon(), anonList);
                    }
                }
            }
        });
    }
};

TEST_P(PolicyInvariantTest, InvariantsHoldAfterRandomWorkload)
{
    sim::MachineConfig cfg = sim::tinyTestMachine();
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy(GetParam(), 1_MiB));
    runRandomWorkload(sim, 30000, 42);
    checkFrameConservation(sim);
    checkListMembership(sim);
    checkListTagsConsistent(sim);
    checkSharedInvariants(sim);
}

TEST_P(PolicyInvariantTest, TimeIsMonotonic)
{
    sim::Simulator sim(sim::tinyTestMachine());
    sim.setPolicy(policies::makePolicy(GetParam(), 1_MiB));
    const Vaddr a = sim.mmap(64 * kPageSize);
    Rng rng(7);
    SimTime last = sim.now();
    for (int i = 0; i < 5000; ++i) {
        sim.read(a + rng.nextRange(64) * kPageSize, 8);
        EXPECT_GE(sim.now(), last);
        last = sim.now();
    }
}

TEST_P(PolicyInvariantTest, DeterministicForSameSeed)
{
    auto runOnce = [&](std::uint64_t seed) {
        sim::MachineConfig cfg = sim::tinyTestMachine();
        cfg.seed = seed;
        sim::Simulator sim(cfg);
        sim.setPolicy(policies::makePolicy(GetParam(), 1_MiB));
        runRandomWorkload(sim, 8000, seed);
        return sim.now();
    };
    EXPECT_EQ(runOnce(9), runOnce(9));
}

TEST_P(PolicyInvariantTest, UnmapReturnsAllFrames)
{
    sim::Simulator sim(sim::tinyTestMachine());
    sim.setPolicy(policies::makePolicy(GetParam(), 1_MiB));
    std::vector<std::size_t> freeBefore;
    sim.memory().forEachNode([&](sim::Node &n) {
        freeBefore.push_back(n.freeFrames());
    });
    runRandomWorkload(sim, 15000, 3);
    // Tear everything down; frames must return exactly.
    std::vector<Vaddr> regions;
    for (const auto &r : sim.space().regions())
        regions.push_back(r.start);
    for (Vaddr start : regions)
        sim.unmapRegion(start);
    std::size_t i = 0;
    sim.memory().forEachNode([&](sim::Node &n) {
        EXPECT_EQ(n.freeFrames(), freeBefore[i++]) << "node";
    });
    EXPECT_EQ(sim.space().pageCount(), 0u);
}


TEST_P(PolicyInvariantTest, SurvivesOvercommitWithSwap)
{
    // Footprint larger than DRAM+PM combined: every policy must reach
    // block storage through its pressure path without OOM-ing, and the
    // books must still balance afterwards.
    sim::MachineConfig cfg = sim::tinyTestMachine();
    cfg.swapPages = 0;  // unlimited swap
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy(GetParam(), 1_MiB));
    const std::size_t total =
        sim.memory().tierFrames(TierKind::Dram) +
        sim.memory().tierFrames(TierKind::Pmem);
    const std::size_t pages = total + total / 4;
    const Vaddr base = sim.mmap(pages * kPageSize);
    Rng rng(21);
    // Sequential first touch, then a scattered re-touch wave.
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(base + i * kPageSize);
    for (int i = 0; i < 5000; ++i)
        sim.read(base + rng.nextRange(pages) * kPageSize, 8);
    EXPECT_GT(sim.vmstat().global(stats::VmItem::Pswpout), 0u);
    checkFrameConservation(sim);
    checkListMembership(sim);
    checkSharedInvariants(sim);
}

INSTANTIATE_TEST_SUITE_P(
    AllTieredPolicies, PolicyInvariantTest,
    ::testing::Values("static", "multiclock", "nimble", "at-cpm",
                      "at-opm", "autonuma", "amp-lru", "amp-lfu",
                      "amp-random"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// --- N-tier topology properties ----------------------------------------------------

sim::MachineConfig
threeTierTinyMachine()
{
    sim::MachineConfig cfg = sim::paperMachineThreeTier();
    cfg.nodes = {{0, 1_MiB}, {1, 2_MiB}, {2, 4_MiB}};
    cfg.cache.enabled = false;
    return cfg;
}

std::size_t
residentOnTier(sim::Simulator &sim, TierRank rank)
{
    std::size_t n = 0;
    sim.space().forEachPage([&](Page *pg) {
        if (pg->resident() && sim.pageTier(pg) == rank)
            ++n;
    });
    return n;
}

TEST(TierTopologyProperty, AllocationFallbackWalksRanksInOrder)
{
    // First-touch allocation fills rank 0 first, spills to rank 1 only
    // once DRAM runs out of headroom, and reaches rank 2 only after the
    // middle tier does too.
    sim::Simulator sim(threeTierTinyMachine());
    sim.setPolicy(policies::makePolicy("static"));
    const std::size_t f0 = sim.memory().tierFrames(0);
    const std::size_t f1 = sim.memory().tierFrames(1);
    const std::size_t f2 = sim.memory().tierFrames(2);
    const std::size_t total = f0 + f1 + f2;
    const Vaddr base = sim.mmap(total * kPageSize);
    std::size_t touched = 0;
    auto touchUpTo = [&](std::size_t target) {
        for (; touched < target; ++touched)
            sim.write(base + touched * kPageSize);
    };

    // Half of DRAM: everything stays on rank 0.
    touchUpTo(f0 / 2);
    EXPECT_EQ(residentOnTier(sim, 0), f0 / 2);
    EXPECT_EQ(residentOnTier(sim, 1), 0u);
    EXPECT_EQ(residentOnTier(sim, 2), 0u);

    // Past DRAM into half of CXL: rank 1 engages, rank 2 untouched.
    touchUpTo(f0 + f1 / 2);
    EXPECT_GT(residentOnTier(sim, 1), 0u);
    EXPECT_EQ(residentOnTier(sim, 2), 0u);

    // Past DRAM+CXL: the bottom tier finally takes the overflow.
    touchUpTo(f0 + f1 + f2 / 2);
    EXPECT_GT(residentOnTier(sim, 2), 0u);
    for (const auto &v : harness::collectViolations(sim))
        ADD_FAILURE() << "harness invariant: " << v;
}

/** Overcommit beyond all tiers: the cascade must end in swap. */
class DemotionCascadeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DemotionCascadeTest, CascadeTerminatesInSwap)
{
    sim::MachineConfig cfg;
    switch (GetParam()) {
      case 1:
        cfg.nodes = {{0, 2_MiB}};
        break;
      case 2:
        cfg.nodes = {{0, 1_MiB}, {1, 4_MiB}};
        break;
      case 3:
        cfg = sim::paperMachineThreeTier();
        cfg.nodes = {{0, 1_MiB}, {1, 2_MiB}, {2, 4_MiB}};
        break;
    }
    cfg.cache.enabled = false;
    cfg.swapPages = 0;  // unlimited swap
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("multiclock"));
    std::size_t total = 0;
    for (TierRank rank : sim.memory().tierOrder())
        total += sim.memory().tierFrames(rank);
    const std::size_t pages = total + total / 4;
    const Vaddr base = sim.mmap(pages * kPageSize);
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(base + i * kPageSize);
    Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        sim.read(base + rng.nextRange(pages) * kPageSize, 8);
    // The books balance, pressure reached block storage, and on
    // multi-tier machines pages flowed down the rank chain.
    EXPECT_GT(sim.vmstat().global(stats::VmItem::Pswpout), 0u);
    if (sim.memory().numTiers() > 1) {
        EXPECT_GT(sim.vmstat().global(stats::VmItem::Pgdemote), 0u);
    }
    for (const auto &v : harness::collectViolations(sim))
        ADD_FAILURE() << "harness invariant: " << v;
}

INSTANTIATE_TEST_SUITE_P(TierCounts, DemotionCascadeTest,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return std::to_string(info.param) + "tier";
                         });

// --- Zipfian distribution properties (parameterized over theta) -------------------

class ZipfPropertyTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfPropertyTest, RankFrequenciesDecrease)
{
    Rng rng(11);
    workloads::ZipfianGenerator zipf(256, GetParam());
    std::vector<int> counts(256, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.next(rng)];
    // Compare rank buckets: head must dominate mid must dominate tail.
    int head = 0, mid = 0, tail = 0;
    for (int r = 0; r < 16; ++r)
        head += counts[r];
    for (int r = 64; r < 80; ++r)
        mid += counts[r];
    for (int r = 240; r < 256; ++r)
        tail += counts[r];
    EXPECT_GT(head, mid);
    EXPECT_GE(mid, tail);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfPropertyTest,
                         ::testing::Values(0.5, 0.8, 0.99));

// --- LLC invariants over random access streams -------------------------------------

class CacheInvariantTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheInvariantTest, HitsPlusMissesEqualAccesses)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16_KiB;
    cfg.ways = GetParam();
    CacheModel cache(cfg);
    Rng rng(GetParam());
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        cache.access(rng.nextRange(1 << 20), rng.nextBool(0.5));
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(n));
    EXPECT_LE(cache.writebacks(), cache.misses());
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheInvariantTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace mclock
