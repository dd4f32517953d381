/**
 * @file
 * Unit tests for the workload substrates: distributions, KV store,
 * YCSB driver, synthetic profiles, instrumented arrays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/units.hh"
#include "policies/factory.hh"
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

/**
 * The YCSB zipfian draw with every constant recomputed per draw, kept
 * as the reference the generator's precomputed constants must
 * reproduce bit for bit.
 */
class ReferenceZipf
{
  public:
    ReferenceZipf(std::uint64_t n, double theta)
        : items_(n), theta_(theta), zetaN_(zeta(0, n, 0.0))
    {
    }

    void
    grow(std::uint64_t n)
    {
        zetaN_ = zeta(items_, n, zetaN_);
        items_ = n;
    }

    std::uint64_t
    next(Rng &rng) const
    {
        const double zeta2 = zeta(0, 2, 0.0);
        const double alpha = 1.0 / (1.0 - theta_);
        const double eta =
            (1.0 - std::pow(2.0 / static_cast<double>(items_),
                            1.0 - theta_)) /
            (1.0 - zeta2 / zetaN_);
        const double u = rng.nextDouble();
        const double uz = u * zetaN_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const auto rank = static_cast<std::uint64_t>(
            static_cast<double>(items_) *
            std::pow(eta * u - eta + 1.0, alpha));
        return std::min(rank, items_ - 1);
    }

  private:
    double
    zeta(std::uint64_t st, std::uint64_t n, double initial) const
    {
        double sum = initial;
        for (std::uint64_t i = st; i < n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
        return sum;
    }

    std::uint64_t items_;
    double theta_;
    double zetaN_;
};

TEST(ZipfTest, MatchesPerDrawReferenceFormula)
{
    for (const double theta : {0.5, 0.8, 0.99}) {
        ZipfianGenerator zipf(1000, theta);
        ReferenceZipf ref(1000, theta);
        Rng rng(11), refRng(11);
        std::uint64_t ones = 0;
        for (int i = 0; i < 1000000; ++i) {
            if (i % 250000 == 0 && i > 0) {
                // Growth re-derives the constants from the new zeta.
                const std::uint64_t n = zipf.itemCount() * 3;
                zipf.setItemCount(n);
                ref.grow(n);
            }
            const std::uint64_t got = zipf.next(rng);
            ASSERT_EQ(got, ref.next(refRng))
                << "theta " << theta << " draw " << i;
            ones += got == 1 ? 1 : 0;
        }
        // The rank-one branch was exercised, not just the tail.
        EXPECT_GT(ones, 1000u) << theta;
    }
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

TEST(InstrumentedArrayTest, MovedInVectorIsAdoptedAndMatchesPokedTwin)
{
    std::vector<std::uint64_t> host(3000);
    for (std::size_t i = 0; i < host.size(); ++i)
        host[i] = i * 7;

    auto moved = makeSim();
    InstrumentedArray<std::uint64_t>::Host copy(host.begin(), host.end());
    const std::uint64_t *buffer = copy.data();
    InstrumentedArray<std::uint64_t> a;
    a.allocate(*moved, std::move(copy), "arr");
    EXPECT_EQ(&a.peek(0), buffer);  // adopted, not copied
    EXPECT_EQ(moved->metrics().totalAccesses(), 0u);
    a.streamInit();

    auto poked = makeSim();
    InstrumentedArray<std::uint64_t> b(*poked, host.size(), "arr");
    for (std::size_t i = 0; i < host.size(); ++i)
        b.poke(i, host[i]);
    b.streamInit();

    EXPECT_EQ(moved->now(), poked->now());
    EXPECT_EQ(moved->metrics().totalAccesses(),
              poked->metrics().totalAccesses());
    for (const auto item :
         {stats::VmItem::PgfaultDram, stats::VmItem::PgfaultPm})
        EXPECT_EQ(moved->vmstat().global(item), poked->vmstat().global(item));
    const auto &ra = moved->space().regions();
    const auto &rb = poked->space().regions();
    ASSERT_EQ(ra.size(), 1u);
    ASSERT_EQ(rb.size(), 1u);
    EXPECT_EQ(ra[0].start, rb[0].start);
    EXPECT_EQ(ra[0].bytes, rb[0].bytes);
    EXPECT_EQ(ra[0].name, rb[0].name);
    for (std::size_t i = 0; i < host.size(); ++i)
        ASSERT_EQ(a.peek(i), b.peek(i));
}

TEST(InstrumentedArrayTest, SizedAllocationIsZeroFilled)
{
    // The second array likely reuses the first one's freed host buffer.
    auto sim = makeSim();
    InstrumentedArray<int> arr(*sim, 4096, "dirty");
    for (std::size_t i = 0; i < arr.size(); ++i)
        arr.poke(i, -1);
    arr.release();
    arr.allocate(*sim, 4096, "clean");
    for (std::size_t i = 0; i < arr.size(); ++i)
        ASSERT_EQ(arr.peek(i), 0) << "element " << i;
}

TEST(InstrumentedArrayTest, EmptyArrayMapsNothing)
{
    auto sim = makeSim();
    InstrumentedArray<int> arr;
    arr.allocate(*sim, InstrumentedArray<int>::Host{}, "empty");
    EXPECT_TRUE(arr.allocated());
    EXPECT_EQ(arr.size(), 0u);
    EXPECT_TRUE(sim->space().regions().empty());
    arr.streamInit();
    EXPECT_EQ(sim->metrics().totalAccesses(), 0u);
    arr.release();
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

TEST(KvStoreTest, RecycledSlotMustFitItem)
{
    // Freed 156-byte slots must not take 1056-byte items: every live
    // item and every stranded small slot needs slab bytes of its own.
    auto sim = makeSim();
    KvStore store(*sim);
    const std::size_t empty = store.footprintBytes();
    const std::size_t header = KvStoreConfig{}.itemHeaderBytes;
    for (std::uint64_t k = 0; k < 2000; ++k)
        store.put(k, 100);
    for (std::uint64_t k = 0; k < 2000; ++k)
        ASSERT_TRUE(store.remove(k));
    const std::size_t afterSmall = store.footprintBytes();
    for (std::uint64_t k = 0; k < 2000; ++k)
        store.put(k, 1000);
    EXPECT_GT(store.footprintBytes(), afterSmall);
    EXPECT_GE(store.footprintBytes() - empty,
              2000 * (header + 100) + 2000 * (header + 1000));
}

TEST(KvStoreTest, KeyZeroRoundTrips)
{
    auto sim = makeSim();
    KvStore store(*sim);
    EXPECT_FALSE(store.get(0));
    store.put(0, 100);
    EXPECT_TRUE(store.get(0));
    EXPECT_TRUE(store.readModifyWrite(0));
    EXPECT_TRUE(store.remove(0));
    EXPECT_FALSE(store.get(0));
    EXPECT_EQ(store.itemCount(), 0u);
}

TEST(KvStoreTest, KeysInGapAndPastEndMiss)
{
    auto sim = makeSim();
    KvStore store(*sim);
    store.put(3, 100);
    constexpr std::uint64_t kFar = 100000;
    store.put(kFar, 100);
    for (std::uint64_t k = 4; k < kFar; ++k)
        ASSERT_FALSE(store.get(k)) << "key " << k;
    EXPECT_TRUE(store.get(3));
    EXPECT_TRUE(store.get(kFar));
    EXPECT_FALSE(store.get(kFar + 1));
    EXPECT_FALSE(store.readModifyWrite(kFar + 1));
    EXPECT_FALSE(store.remove(kFar + 1));
    EXPECT_FALSE(store.get(KvStore::kKeyLimit));
    EXPECT_EQ(store.itemCount(), 2u);
}

TEST(KvStoreTest, ItemCountTracksPutOverwriteRemove)
{
    auto sim = makeSim();
    KvStore store(*sim);
    store.put(5, 100);
    store.put(9, 100);
    EXPECT_EQ(store.itemCount(), 2u);
    store.put(5, 100);  // overwrite
    EXPECT_EQ(store.itemCount(), 2u);
    EXPECT_TRUE(store.remove(5));
    EXPECT_FALSE(store.remove(5));
    EXPECT_EQ(store.itemCount(), 1u);
    store.put(5, 100);  // re-put
    EXPECT_EQ(store.itemCount(), 2u);
    EXPECT_TRUE(store.remove(9));
    EXPECT_TRUE(store.remove(5));
    EXPECT_EQ(store.itemCount(), 0u);
}

TEST(KvStoreTest, GrownValueMovesToNewSlot)
{
    // A value that outgrows its slot moves: the slab grows instead of
    // the store writing past the slot into its neighbours, and the old
    // slots go back to the free list.
    auto sim = makeSim();
    KvStore store(*sim);
    for (std::uint64_t k = 0; k < 2000; ++k)
        store.put(k, 100);
    const std::size_t small = store.footprintBytes();
    for (std::uint64_t k = 0; k < 2000; ++k)
        store.put(k, 1000);
    EXPECT_GT(store.footprintBytes(), small);
    EXPECT_EQ(store.itemCount(), 2000u);
    const std::size_t grown = store.footprintBytes();
    for (std::uint64_t k = 2000; k < 4000; ++k)
        store.put(k, 100);  // each reuses a freed 156-byte slot
    EXPECT_EQ(store.footprintBytes(), grown);
    EXPECT_EQ(store.itemCount(), 4000u);
}

TEST(KvStoreTest, EachOpHasItsAccessShape)
{
    // Twin hosts that differ only in cpuPerOp: every op must issue its
    // fixed number of accesses and charge cpuPerOp exactly once.
    struct Cost
    {
        std::uint64_t accesses;
        SimTime ns;
    };
    auto run = [](SimTime cpuPerOp) {
        auto sim = makeSim();
        KvStoreConfig cfg;
        cfg.cpuPerOp = cpuPerOp;
        KvStore store(*sim, cfg);
        std::vector<Cost> costs;
        auto op = [&](auto &&fn) {
            const std::uint64_t ops = sim->appOps();
            const SimTime start = sim->now();
            fn();
            costs.push_back({sim->appOps() - ops, sim->now() - start});
        };
        op([&] { store.put(1, 100); });  // insert
        op([&] { store.put(1, 100); });  // overwrite in place
        op([&] { store.put(1, 400); });  // overwrite, grown
        op([&] { EXPECT_TRUE(store.get(1)); });
        op([&] { EXPECT_FALSE(store.get(2)); });
        op([&] { EXPECT_TRUE(store.readModifyWrite(1)); });
        op([&] { EXPECT_TRUE(store.remove(1)); });
        return costs;
    };
    const std::vector<std::uint64_t> shape = {3, 3, 3, 2, 1, 3, 2};
    const SimTime cpu = KvStoreConfig{}.cpuPerOp;
    const std::vector<Cost> withCpu = run(cpu);
    const std::vector<Cost> noCpu = run(0);
    ASSERT_EQ(withCpu.size(), shape.size());
    ASSERT_EQ(noCpu.size(), shape.size());
    for (std::size_t i = 0; i < shape.size(); ++i) {
        EXPECT_EQ(withCpu[i].accesses, shape[i]) << "op " << i;
        EXPECT_EQ(noCpu[i].accesses, shape[i]) << "op " << i;
        EXPECT_EQ(withCpu[i].ns - noCpu[i].ns, cpu) << "op " << i;
    }
}

TEST(KvStoreDeathTest, KeyAtLimitRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sim = makeSim();
    KvStore store(*sim);
    EXPECT_DEATH(store.put(KvStore::kKeyLimit, 100),
                 "KvStore keys are record numbers below 2\\^26");
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

TEST(YcsbDeathTest, ZeroOpsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sim = makeSim();
    YcsbConfig cfg = tinyYcsb();
    cfg.opsPerWorkload = 0;
    EXPECT_DEATH({ YcsbDriver driver(*sim, cfg); },
                 "opsPerWorkload must be > 0");
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

// --- YCSB driver against the serial loop ----------------------------------------

/**
 * The YCSB driver as it was before run() drew its ops on a producer
 * thread: each op is drawn and issued on the calling thread. run()'s
 * loop is kept verbatim.
 */
class SerialYcsbReference
{
  public:
    SerialYcsbReference(sim::Simulator &sim, YcsbConfig cfg)
        : sim_(sim), cfg_(cfg), rng_(cfg.seed),
          store_(std::make_unique<KvStore>(sim))
    {
    }

    void
    load()
    {
        for (std::uint64_t i = 0; i < cfg_.recordCount; ++i)
            store_->put(keyOf(i), cfg_.valueBytes);
        recordsLoaded_ = cfg_.recordCount;
    }

    YcsbResult
    run(YcsbWorkload w)
    {
        YcsbResult result;
        result.workload = ycsbWorkloadName(w);
        ScrambledZipfianGenerator zipf(recordsLoaded_, cfg_.zipfTheta);
        LatestGenerator latest(recordsLoaded_, cfg_.zipfTheta);

        const SimTime start = sim_.now();
        for (std::uint64_t op = 0; op < cfg_.opsPerWorkload; ++op) {
            switch (w) {
              case YcsbWorkload::A:
                // 50% reads, 50% updates.
                if (rng_.nextBool(0.5))
                    doRead(zipf.next(rng_));
                else
                    doUpdate(zipf.next(rng_));
                break;
              case YcsbWorkload::B:
                // 95% reads, 5% updates.
                if (rng_.nextBool(0.95))
                    doRead(zipf.next(rng_));
                else
                    doUpdate(zipf.next(rng_));
                break;
              case YcsbWorkload::C:
                doRead(zipf.next(rng_));
                break;
              case YcsbWorkload::D:
                // 95% reads of recent records, 5% inserts.
                if (rng_.nextBool(0.95)) {
                    doRead(latest.next(rng_));
                } else {
                    doInsert();
                    latest.setItemCount(recordsLoaded_);
                }
                break;
              case YcsbWorkload::F:
                // 50% reads, 50% read-modify-writes.
                if (rng_.nextBool(0.5))
                    doRead(zipf.next(rng_));
                else
                    store_->readModifyWrite(keyOf(zipf.next(rng_)));
                break;
              case YcsbWorkload::W:
                doUpdate(zipf.next(rng_));
                break;
              case YcsbWorkload::E:
                break;  // handled above
            }
        }
        result.ops = cfg_.opsPerWorkload;
        result.elapsed = sim_.now() - start;
        return result;
    }

    KvStore &store() { return *store_; }

  private:
    static std::uint64_t keyOf(std::uint64_t recno) { return recno; }

    void
    doRead(std::uint64_t recno)
    {
        const bool found = store_->get(keyOf(recno));
        EXPECT_TRUE(found);
    }

    void
    doUpdate(std::uint64_t recno)
    {
        store_->put(keyOf(recno), cfg_.valueBytes);
    }

    void
    doInsert()
    {
        store_->put(keyOf(recordsLoaded_), cfg_.valueBytes);
        ++recordsLoaded_;
    }

    sim::Simulator &sim_;
    YcsbConfig cfg_;
    Rng rng_;
    std::unique_ptr<KvStore> store_;
    std::uint64_t recordsLoaded_ = 0;
};

/**
 * The producer-thread driver must make exactly the store calls the
 * serial loop makes, at op counts around the hand-off block size, in
 * every operational phase, and leave rng_ where the loop leaves it.
 */
TEST(YcsbDriverTest, MatchesSerialReference)
{
    // A footprint above the 2 MiB DRAM tier and a 1 ms scan, so
    // multiclock promotes and demotes while the phases run.
    policies::PolicyOptions popts;
    popts.scanInterval = 1_ms;
    auto makeHost = [&] {
        auto sim = std::make_unique<sim::Simulator>(sim::tinyTestMachine());
        sim->setPolicy(policies::makePolicy("multiclock", popts));
        return sim;
    };
    YcsbConfig cfg;
    cfg.recordCount = 2400;
    cfg.seed = 7;
    constexpr std::uint64_t kBlock = YcsbDriver::kOpsPerBlock;
    std::uint64_t promotions = 0;
    for (YcsbWorkload w : {YcsbWorkload::A, YcsbWorkload::B,
                           YcsbWorkload::C, YcsbWorkload::F,
                           YcsbWorkload::W, YcsbWorkload::D}) {
        for (std::uint64_t ops : {std::uint64_t{1}, kBlock - 1, kBlock,
                                  kBlock + 1, 3 * kBlock + 5}) {
            SCOPED_TRACE(std::string("phase ") + ycsbWorkloadName(w) +
                         ", ops " + std::to_string(ops));
            cfg.opsPerWorkload = ops;
            auto driverHost = makeHost();
            auto serialHost = makeHost();
            YcsbDriver driver(*driverHost, cfg);
            SerialYcsbReference serial(*serialHost, cfg);
            driver.load();
            serial.load();
            // The second phase starts from the Rng state the first one
            // left behind.
            for (YcsbWorkload phase : {w, YcsbWorkload::A}) {
                const YcsbResult got = driver.run(phase);
                const YcsbResult want = serial.run(phase);
                EXPECT_EQ(got.workload, want.workload);
                EXPECT_EQ(got.ops, want.ops);
                EXPECT_EQ(got.elapsed, want.elapsed);
                EXPECT_EQ(got.operational, want.operational);
                EXPECT_EQ(driverHost->now(), serialHost->now());
                EXPECT_EQ(driverHost->vmstat().snapshot(),
                          serialHost->vmstat().snapshot());
                EXPECT_EQ(driverHost->llc()->hits(),
                          serialHost->llc()->hits());
                EXPECT_EQ(driverHost->llc()->misses(),
                          serialHost->llc()->misses());
                EXPECT_EQ(driver.store().itemCount(),
                          serial.store().itemCount());
            }
            promotions += driverHost->vmstat().global(
                stats::VmItem::PgpromoteSuccess);
        }
    }
    EXPECT_GT(promotions, 0u);
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
