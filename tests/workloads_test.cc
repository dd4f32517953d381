/**
 * @file
 * Unit tests for the workload substrates: distributions, KV store,
 * YCSB driver, synthetic profiles, instrumented arrays.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "base/units.hh"
#include "policies/static_tiering.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/instrumented_array.hh"
#include "workloads/kvstore.hh"
#include "workloads/synthetic.hh"
#include "workloads/ycsb.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace workloads {
namespace {

std::unique_ptr<sim::Simulator>
makeSim()
{
    auto sim = std::make_unique<sim::Simulator>(sim::tinyTestMachine());
    sim->setPolicy(std::make_unique<policies::StaticTieringPolicy>());
    return sim;
}

// --- Zipfian generators -----------------------------------------------------

TEST(ZipfTest, RanksAreBounded)
{
    Rng rng(1);
    ZipfianGenerator zipf(1000);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(rng), 1000u);
}

TEST(ZipfTest, RankZeroIsMostPopular)
{
    Rng rng(2);
    ZipfianGenerator zipf(1000);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.next(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[100]);
    // Head concentration: rank 0 draws several percent of requests.
    EXPECT_GT(counts[0], 100000 / 25);
}

TEST(ZipfTest, ItemCountGrowth)
{
    Rng rng(3);
    ZipfianGenerator zipf(100);
    zipf.setItemCount(200);
    EXPECT_EQ(zipf.itemCount(), 200u);
    bool sawHigh = false;
    for (int i = 0; i < 50000; ++i) {
        const auto v = zipf.next(rng);
        EXPECT_LT(v, 200u);
        if (v >= 100)
            sawHigh = true;
    }
    EXPECT_TRUE(sawHigh);
}

TEST(ZipfTest, ScrambledSpreadsHotKeys)
{
    Rng rng(4);
    ScrambledZipfianGenerator zipf(1000);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.next(rng)];
    // The most popular key is (almost surely) not key 0.
    std::uint64_t hottest = 0;
    int best = 0;
    for (const auto &[k, c] : counts) {
        if (c > best) {
            best = c;
            hottest = k;
        }
    }
    EXPECT_EQ(hottest, fnv1a64(0) % 1000);
}

TEST(ZipfTest, LatestFavoursNewest)
{
    Rng rng(5);
    LatestGenerator latest(1000);
    std::uint64_t sumNew = 0;
    const int n = 50000;
    int newest = 0;
    for (int i = 0; i < n; ++i) {
        const auto v = latest.next(rng);
        sumNew += v;
        if (v >= 990)
            ++newest;
    }
    // The newest 1% of records receive a large share of requests.
    EXPECT_GT(newest, n / 10);
    latest.setItemCount(2000);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(latest.next(rng), 2000u);
}

TEST(ZipfTest, IncrementalZetaMatchesFreshComputation)
{
    // Growing the item count incrementally must produce the same
    // distribution as constructing at the final size.
    Rng a(31), b(31);
    ZipfianGenerator grown(500);
    grown.setItemCount(1500);
    ZipfianGenerator fresh(1500);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(grown.next(a), fresh.next(b));
}

TEST(ZipfTest, HigherThetaConcentratesMore)
{
    Rng a(32), b(32);
    ZipfianGenerator mild(1000, 0.5);
    ZipfianGenerator steep(1000, 0.99);
    int mildHead = 0, steepHead = 0;
    for (int i = 0; i < 50000; ++i) {
        if (mild.next(a) < 10)
            ++mildHead;
        if (steep.next(b) < 10)
            ++steepHead;
    }
    EXPECT_GT(steepHead, mildHead);
}

// --- InstrumentedArray --------------------------------------------------------

TEST(InstrumentedArrayTest, GetSetRoundTrip)
{
    auto sim = makeSim();
    InstrumentedArray<int> arr(*sim, 100, "test");
    arr.set(5, 42);
    EXPECT_EQ(arr.get(5), 42);
    EXPECT_EQ(arr.peek(5), 42);
    EXPECT_EQ(arr.size(), 100u);
}

TEST(InstrumentedArrayTest, AccessesFlowThroughSimulator)
{
    auto sim = makeSim();
    InstrumentedArray<std::uint64_t> arr(*sim, 2048, "test");
    const auto before = sim->metrics().totalAccesses();
    arr.set(0, 1);
    arr.get(0);
    EXPECT_EQ(sim->metrics().totalAccesses(), before + 2);
    // Elements land at the right vaddrs (dense page usage).
    arr.get(1024);  // different page -> new fault
    EXPECT_GE(sim->vmstat().global(stats::VmItem::PgfaultDram) +
                  sim->vmstat().global(stats::VmItem::PgfaultPm),
              2u);
}

TEST(InstrumentedArrayTest, UpdateDoesReadAndWrite)
{
    auto sim = makeSim();
    InstrumentedArray<int> arr(*sim, 4, "test");
    arr.set(1, 10);
    const auto before = sim->metrics().totalAccesses();
    arr.update(1, [](int v) { return v + 5; });
    EXPECT_EQ(sim->metrics().totalAccesses(), before + 2);
    EXPECT_EQ(arr.peek(1), 15);
}

TEST(InstrumentedArrayTest, ReleaseUnmaps)
{
    auto sim = makeSim();
    InstrumentedArray<int> arr(*sim, 1024, "test");
    arr.streamInit();
    EXPECT_GT(sim->space().pageCount(), 0u);
    arr.release();
    EXPECT_EQ(sim->space().pageCount(), 0u);
    EXPECT_FALSE(arr.allocated());
}

// --- KvStore --------------------------------------------------------------------

TEST(KvStoreTest, PutGetRoundTrip)
{
    auto sim = makeSim();
    KvStore store(*sim);
    EXPECT_FALSE(store.get(1));
    store.put(1, 100);
    EXPECT_TRUE(store.get(1));
    EXPECT_EQ(store.itemCount(), 1u);
}

TEST(KvStoreTest, OverwriteKeepsCount)
{
    auto sim = makeSim();
    KvStore store(*sim);
    store.put(7, 100);
    store.put(7, 100);
    EXPECT_EQ(store.itemCount(), 1u);
}

TEST(KvStoreTest, RemoveRecyclesSlot)
{
    auto sim = makeSim();
    KvStore store(*sim);
    store.put(1, 200);
    const std::size_t footprint = store.footprintBytes();
    EXPECT_TRUE(store.remove(1));
    EXPECT_FALSE(store.get(1));
    store.put(2, 200);  // reuses the recycled slot: no new slab
    EXPECT_EQ(store.footprintBytes(), footprint);
}

TEST(KvStoreTest, ReadModifyWrite)
{
    auto sim = makeSim();
    KvStore store(*sim);
    store.put(3, 64);
    EXPECT_TRUE(store.readModifyWrite(3));
    EXPECT_FALSE(store.readModifyWrite(99));
}

TEST(KvStoreTest, OpsAdvanceSimTime)
{
    auto sim = makeSim();
    KvStore store(*sim);
    const SimTime before = sim->now();
    store.put(1, 512);
    EXPECT_GT(sim->now(), before);
}

TEST(KvStoreTest, FootprintGrowsWithItems)
{
    auto sim = makeSim();
    KvStore store(*sim);
    const std::size_t before = store.footprintBytes();
    for (int i = 0; i < 2000; ++i)
        store.put(i, 1024);
    EXPECT_GT(store.footprintBytes(), before + 1_MiB);
}

// --- YCSB ------------------------------------------------------------------------

YcsbConfig
tinyYcsb()
{
    YcsbConfig cfg;
    cfg.recordCount = 300;
    cfg.valueBytes = 256;
    cfg.opsPerWorkload = 2000;
    return cfg;
}

TEST(YcsbTest, LoadPopulatesStore)
{
    auto sim = makeSim();
    YcsbDriver driver(*sim, tinyYcsb());
    driver.load();
    EXPECT_EQ(driver.store().itemCount(), 300u);
}

TEST(YcsbTest, WorkloadNames)
{
    EXPECT_STREQ(ycsbWorkloadName(YcsbWorkload::A), "A");
    EXPECT_STREQ(ycsbWorkloadName(YcsbWorkload::W), "W");
}

TEST(YcsbTest, RunReportsThroughput)
{
    auto sim = makeSim();
    YcsbDriver driver(*sim, tinyYcsb());
    driver.load();
    const YcsbResult r = driver.run(YcsbWorkload::A);
    EXPECT_TRUE(r.operational);
    EXPECT_EQ(r.ops, 2000u);
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_GT(r.throughputOpsPerSec(), 0.0);
}

TEST(YcsbTest, WorkloadENonOperational)
{
    auto sim = makeSim();
    YcsbDriver driver(*sim, tinyYcsb());
    driver.load();
    const YcsbResult r = driver.run(YcsbWorkload::E);
    EXPECT_FALSE(r.operational);
    EXPECT_EQ(r.ops, 0u);
}

TEST(YcsbTest, WorkloadDInsertsRecords)
{
    auto sim = makeSim();
    YcsbDriver driver(*sim, tinyYcsb());
    driver.load();
    driver.run(YcsbWorkload::D);
    EXPECT_GT(driver.store().itemCount(), 300u);
}

TEST(YcsbTest, PaperSequenceOrder)
{
    auto sim = makeSim();
    YcsbConfig cfg = tinyYcsb();
    cfg.opsPerWorkload = 200;
    YcsbDriver driver(*sim, cfg);
    driver.load();
    const auto results = driver.runPaperSequence();
    ASSERT_EQ(results.size(), 6u);
    EXPECT_EQ(results[0].workload, "A");
    EXPECT_EQ(results[1].workload, "B");
    EXPECT_EQ(results[2].workload, "C");
    EXPECT_EQ(results[3].workload, "F");
    EXPECT_EQ(results[4].workload, "W");
    EXPECT_EQ(results[5].workload, "D");
}

// --- Synthetic profiles -------------------------------------------------------------

TEST(SyntheticTest, ProfileNames)
{
    EXPECT_STREQ(syntheticProfileName(SyntheticProfile::Rubis), "rubis");
    EXPECT_STREQ(syntheticProfileName(SyntheticProfile::Lusearch),
                 "lusearch");
}

TEST(SyntheticTest, ShapesAreSane)
{
    for (auto p : {SyntheticProfile::Rubis, SyntheticProfile::SpecPower,
                   SyntheticProfile::Xalan, SyntheticProfile::Lusearch}) {
        const SyntheticShape s = syntheticShape(p);
        EXPECT_GT(s.dramFriendlyFrac, 0.0);
        EXPECT_LT(s.dramFriendlyFrac + s.infrequentFrac, 1.0);
        EXPECT_GE(s.tierGroups, 2u);
        EXPECT_GT(s.phaseLength, 0u);
        EXPECT_GT(s.hotAccessProb, s.infrequentProb);
    }
}

TEST(SyntheticTest, RunProducesTraceAndAdvancesTime)
{
    auto sim = makeSim();
    SyntheticConfig cfg;
    cfg.numPages = 100;
    cfg.duration = 2_s;
    cfg.step = 50_ms;
    SyntheticWorkload workload(*sim, SyntheticProfile::Rubis, cfg);
    trace::AccessTrace trace;
    workload.run(trace);
    EXPECT_GE(sim->now(), 2_s);
    EXPECT_GT(trace.size(), 0u);
    for (const auto &ev : trace.events())
        EXPECT_LT(ev.page, 100u);
}

TEST(SyntheticTest, DramFriendlyPagesHotterThanInfrequent)
{
    auto sim = makeSim();
    SyntheticConfig cfg;
    cfg.numPages = 100;
    cfg.duration = 5_s;
    cfg.step = 20_ms;
    SyntheticWorkload workload(*sim, SyntheticProfile::Rubis, cfg);
    trace::AccessTrace trace;
    workload.run(trace);
    // Profile rubis: pages [0,15) always hot, [15,60) infrequent.
    std::uint64_t hot = 0, cold = 0;
    for (const auto &ev : trace.events()) {
        if (ev.page < 15)
            ++hot;
        else if (ev.page < 60)
            ++cold;
    }
    EXPECT_GT(hot, cold * 5);
}

}  // namespace
}  // namespace workloads
}  // namespace mclock
