/**
 * @file
 * Tests for the kernel-style stats subsystem (src/stats/) and its
 * integration contract:
 *
 *  - VmStat: per-node + global attribution, snapshots, stable names;
 *  - TraceBuffer: ring semantics (overwrite, drop accounting), bound
 *    clock stamping, JSONL export;
 *  - VmstatSampler: cumulative time series and CSV shape;
 *  - counter invariants: every factory policy's counters agree with
 *    the simulator state they describe (frame books, swap slots,
 *    window sums), and a deliberately corrupted counter is detected;
 *  - differential: harness scenario promotion/demotion metrics match
 *    each unit's vmstat export (Fig. 5 policy sweep), and Fig. 8's
 *    window series sums to its totals;
 *  - determinism: stats artifacts are bit-identical across --jobs
 *    counts (results themselves: RunIdentity in harness_test).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/units.hh"
#include "harness/invariants.hh"
#include "harness/profiles.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "stats/sampler.hh"
#include "stats/tracepoint.hh"
#include "stats/vmstat.hh"
#include "vm/page.hh"
#include "workloads/ycsb.hh"

#include "harness_fixtures.hh"

using namespace mclock;
using namespace mclock::harness;
using stats::TraceBuffer;
using stats::TraceEvent;
using stats::TraceEventType;
using stats::VmItem;
using stats::VmStat;
using stats::VmstatSampler;

namespace {

// --- VmStat ---------------------------------------------------------------

TEST(VmStatTest, GlobalAndPerNodeAttribution)
{
    VmStat vs(2);
    vs.add(VmItem::PgscanActive, 0, 3);
    vs.add(VmItem::PgscanActive, 1, 2);
    vs.add(VmItem::PgscanActive);  // kInvalidNode: global only
    EXPECT_EQ(vs.global(VmItem::PgscanActive), 6u);
    EXPECT_EQ(vs.node(0, VmItem::PgscanActive), 3u);
    EXPECT_EQ(vs.node(1, VmItem::PgscanActive), 2u);
    EXPECT_EQ(vs.nodeSum(VmItem::PgscanActive), 5u);
    EXPECT_EQ(vs.global(VmItem::Pgdemote), 0u);
}

TEST(VmStatTest, OutOfRangeNodeStillCountsGlobally)
{
    VmStat vs(2);
    vs.add(VmItem::Pswpin, 7);
    EXPECT_EQ(vs.global(VmItem::Pswpin), 1u);
    EXPECT_EQ(vs.nodeSum(VmItem::Pswpin), 0u);
    EXPECT_EQ(vs.node(7, VmItem::Pswpin), 0u);
}

TEST(VmStatTest, ZeroDeltaIsANoop)
{
    VmStat vs(1);
    vs.add(VmItem::Pgsteal, 0, 0);
    EXPECT_EQ(vs.global(VmItem::Pgsteal), 0u);
    EXPECT_EQ(vs.snapshot().at("pgsteal"), 0u);
}

TEST(VmStatTest, SnapshotHasAllGlobalsAndOnlyNonzeroNodeKeys)
{
    VmStat vs(2);
    vs.add(VmItem::PgscanActive, 0, 3);
    vs.add(VmItem::Pswpin);  // global only
    const auto snap = vs.snapshot();
    // Every global item is present, even at zero.
    for (std::size_t i = 0; i < stats::kNumVmItems; ++i) {
        const auto item = static_cast<VmItem>(i);
        ASSERT_TRUE(snap.count(stats::vmItemName(item)))
            << stats::vmItemName(item);
    }
    EXPECT_EQ(snap.at("pgscan_active"), 3u);
    EXPECT_EQ(snap.at("pswpin"), 1u);
    EXPECT_EQ(snap.at("pgdemote"), 0u);
    // Per-node keys appear only for nonzero counts.
    EXPECT_EQ(snap.at("node0.pgscan_active"), 3u);
    EXPECT_EQ(snap.count("node1.pgscan_active"), 0u);
    EXPECT_EQ(snap.count("node0.pswpin"), 0u);
}

TEST(VmStatTest, GetReadsAGlobalCountByName)
{
    VmStat vs(1);
    vs.add(VmItem::InlineOverheadNs, kInvalidNode, 1500);
    vs.add(VmItem::Pswpout, 0, 2);
    EXPECT_EQ(vs.get("inline_overhead_ns"), 1500u);
    EXPECT_EQ(vs.get("pswpout"), 2u);
    EXPECT_EQ(vs.get("pgdemote"), 0u);
    EXPECT_EQ(vs.get("no_such_item"), 0u);
}

TEST(VmStatTest, ItemNamesAreStableAndUnique)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < stats::kNumVmItems; ++i) {
        const std::string name =
            stats::vmItemName(static_cast<VmItem>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "unknown");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), stats::kNumVmItems);
    EXPECT_TRUE(names.count("pgscan_active"));
    EXPECT_TRUE(names.count("pgpromote_success"));
    EXPECT_TRUE(names.count("kpromoted_wake"));
}

TEST(VmStatTest, ResizeKeepsGlobalCounts)
{
    VmStat vs(1);
    vs.add(VmItem::Pgactivate, 0, 4);
    vs.resize(3);
    EXPECT_EQ(vs.numNodes(), 3u);
    EXPECT_EQ(vs.global(VmItem::Pgactivate), 4u);
}

// --- TraceBuffer ----------------------------------------------------------

TEST(TraceBufferTest, ZeroCapacityDisablesRecording)
{
    TraceBuffer buf(0);
    EXPECT_FALSE(buf.enabled());
    buf.record(TraceEventType::KswapdWake, 0);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_TRUE(buf.events().empty());
}

TEST(TraceBufferTest, RingOverwritesOldestAndCountsDrops)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        buf.record(TraceEventType::ListRotation, 0, i);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 2u);
    EXPECT_EQ(buf.recorded(), 6u);
    const auto events = buf.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest surviving first: events 2..5.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].arg0, i + 2);
}

TEST(TraceBufferTest, BoundClockStampsEvents)
{
    TraceBuffer buf(8);
    SimTime clock = 5;
    buf.bindClock(&clock);
    buf.record(TraceEventType::MigrationStart, 1);
    clock = 9;
    buf.record(TraceEventType::MigrationComplete, 1);
    const auto events = buf.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].time, 5u);
    EXPECT_EQ(events[1].time, 9u);
}

TEST(TraceBufferTest, ClearResetsEverything)
{
    TraceBuffer buf(2);
    buf.record(TraceEventType::KswapdWake, 0);
    buf.record(TraceEventType::KswapdWake, 0);
    buf.record(TraceEventType::KswapdWake, 0);
    EXPECT_EQ(buf.dropped(), 1u);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_EQ(buf.recorded(), 0u);
    // Still usable after clear.
    buf.record(TraceEventType::KswapdWake, 0, 42);
    ASSERT_EQ(buf.events().size(), 1u);
    EXPECT_EQ(buf.events()[0].arg0, 42u);
}

TEST(TraceBufferTest, EventNamesAreStableAndUnique)
{
    const TraceEventType types[] = {
        TraceEventType::MigrationStart, TraceEventType::MigrationComplete,
        TraceEventType::ListRotation,   TraceEventType::KswapdWake,
        TraceEventType::KpromotedWake,  TraceEventType::WatermarkCross,
    };
    std::set<std::string> names;
    for (const auto t : types) {
        const std::string name = stats::traceEventName(t);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "unknown");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), 6u);
}

TEST(TraceBufferTest, JsonlExportFormat)
{
    TraceBuffer buf(4);
    SimTime clock = 123;
    buf.bindClock(&clock);
    buf.record(TraceEventType::KswapdWake, 0, 7, 9);
    std::string out;
    stats::appendTraceJsonl(out, buf.events(), "u");
    EXPECT_EQ(out,
              "{\"unit\":\"u\",\"t\":123,\"ev\":\"kswapd_wake\","
              "\"node\":0,\"arg0\":7,\"arg1\":9}\n");
}

// --- VmstatSampler --------------------------------------------------------

TEST(VmstatSamplerTest, SamplesAreCumulative)
{
    VmStat vs(1);
    VmstatSampler sampler(vs);
    vs.add(VmItem::PgscanActive, 0, 2);
    sampler.sample(10);
    vs.add(VmItem::PgscanActive, 0, 3);
    vs.add(VmItem::Pswpout, 0);
    sampler.sample(20);
    const auto &samples = sampler.samples();
    ASSERT_EQ(samples.size(), 2u);
    const auto active = static_cast<std::size_t>(VmItem::PgscanActive);
    const auto swpout = static_cast<std::size_t>(VmItem::Pswpout);
    EXPECT_EQ(samples[0].time, 10u);
    EXPECT_EQ(samples[0].counters[active], 2u);
    EXPECT_EQ(samples[0].counters[swpout], 0u);
    EXPECT_EQ(samples[1].counters[active], 5u);
    EXPECT_EQ(samples[1].counters[swpout], 1u);
}

TEST(VmstatSamplerTest, CsvHasHeaderAndOneRowPerSample)
{
    VmStat vs(1);
    VmstatSampler sampler(vs);
    vs.add(VmItem::PgscanActive, 0, 2);
    sampler.sample(10);
    sampler.sample(20);
    const std::string csv = sampler.toCsv();
    EXPECT_EQ(csv.rfind("time_ns,pgscan_active,", 0), 0u);
    std::size_t lines = 0;
    for (char c : csv) {
        if (c == '\n')
            ++lines;
    }
    EXPECT_EQ(lines, 3u);  // header + two samples
    EXPECT_NE(csv.find("\n10,2,"), std::string::npos);
    EXPECT_NE(csv.find("\n20,2,"), std::string::npos);
    // Each row carries every item: comma count per line is stable.
    const std::size_t headerEnd = csv.find('\n');
    std::size_t commas = 0;
    for (std::size_t i = 0; i < headerEnd; ++i) {
        if (csv[i] == ',')
            ++commas;
    }
    EXPECT_EQ(commas, stats::kNumVmItems);
}

// --- Counter invariants against ground truth ------------------------------

/**
 * The frame books close exactly when no region was unmapped: every
 * resident page the walk finds is a counted fault (minor or swap-in)
 * that was not stolen since.
 */
void
expectFrameBooksClose(sim::Simulator &sim, const std::string &label)
{
    const VmStat &vs = sim.vmstat();
    std::uint64_t resident = 0;
    sim.space().forEachPage([&](Page *pg) { resident += pg->resident(); });
    EXPECT_EQ(resident, vs.global(VmItem::PgfaultDram) +
                            vs.global(VmItem::PgfaultPm) -
                            vs.global(VmItem::Pgsteal))
        << label;
}

TEST(StatsIntegration, MulticlockCountersMatchGroundTruth)
{
    sim::MachineConfig machine = goldenYcsbMachine();
    machine.stats.sampler = true;  // exercise the sampler daemon too
    sim::Simulator sim(machine);
    sim.setPolicy(
        policies::makePolicy("multiclock", benchPolicyOptions()));
    workloads::YcsbDriver driver(sim, goldenYcsbConfig(20000));
    driver.load();
    driver.run(workloads::YcsbWorkload::A);

    const auto violations = collectViolations(sim);
    EXPECT_TRUE(violations.empty()) << violations.front();
    expectFrameBooksClose(sim, "multiclock");

    const VmStat &vs = sim.vmstat();
    // The workload overflows DRAM, so the full tiering machinery ran.
    EXPECT_GT(vs.global(VmItem::PgpromoteSuccess), 0u);
    EXPECT_GT(vs.global(VmItem::Pgdemote), 0u);
    EXPECT_GT(vs.global(VmItem::KpromotedWake), 0u);
    EXPECT_GT(vs.global(VmItem::PgscanPromote), 0u);

    // Tracepoints: recorded, stamped with nondecreasing simulated time.
    const auto events = sim.trace().events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(sim.trace().recorded(),
              sim.trace().dropped() + events.size());
    for (std::size_t i = 1; i < events.size(); ++i)
        ASSERT_GE(events[i].time, events[i - 1].time) << i;

    // Sampler: several samples, strictly increasing time, monotone
    // cumulative counters.
    ASSERT_NE(sim.sampler(), nullptr);
    const auto &samples = sim.sampler()->samples();
    ASSERT_GE(samples.size(), 2u);
    for (std::size_t i = 1; i < samples.size(); ++i) {
        ASSERT_GT(samples[i].time, samples[i - 1].time) << i;
        for (std::size_t item = 0; item < stats::kNumVmItems; ++item) {
            ASSERT_GE(samples[i].counters[item],
                      samples[i - 1].counters[item])
                << "sample " << i << " item "
                << stats::vmItemName(static_cast<VmItem>(item));
        }
    }
    // The last sample never exceeds the final counter values.
    const auto finals = vs.globals();
    for (std::size_t item = 0; item < stats::kNumVmItems; ++item)
        EXPECT_LE(samples.back().counters[item], finals[item]);
}

TEST(StatsIntegration, SamplerIsOffByDefault)
{
    sim::Simulator sim(goldenYcsbMachine());
    sim.setPolicy(policies::makePolicy("multiclock"));
    EXPECT_EQ(sim.sampler(), nullptr);
}

TEST(StatsIntegration, CorruptedCounterIsDetected)
{
    sim::Simulator sim(sim::tinyTestMachine());
    sim.setPolicy(policies::makePolicy("multiclock"));
    EXPECT_TRUE(collectViolations(sim).empty());
    // A phantom promotion no migration backs must trip the checker.
    sim.vmstat().add(VmItem::PgpromoteSuccess, 0);
    EXPECT_FALSE(collectViolations(sim).empty());
}

/**
 * Every factory policy's counters must agree with the state they
 * describe (the invariant sweep plus the exact frame books).
 */
class PolicyCounterConsistency
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(PolicyCounterConsistency, CountersMatchLegacyAccounting)
{
    const std::string policy = GetParam();
    sim::MachineConfig machine = goldenYcsbMachine();
    if (policy == "memory-mode")
        machine.nodes = {{TierKind::Pmem, 24_MiB}};
    auto opts = benchPolicyOptions();
    opts.dramCacheBytes = 4_MiB;
    sim::Simulator sim(machine);
    sim.setPolicy(policies::makePolicy(policy, opts));
    workloads::YcsbDriver driver(sim, goldenYcsbConfig(15000));
    driver.load();
    driver.run(workloads::YcsbWorkload::A);

    const auto violations = collectViolations(sim);
    EXPECT_TRUE(violations.empty())
        << policy << ": " << violations.front();
    expectFrameBooksClose(sim, policy);
}

INSTANTIATE_TEST_SUITE_P(
    AllFactoryPolicies, PolicyCounterConsistency,
    ::testing::ValuesIn(policies::policyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// --- Accounting regressions: exchange / eviction / unmap ------------------

std::unique_ptr<sim::Simulator>
makeStaticSim(sim::MachineConfig cfg = sim::tinyTestMachine())
{
    auto s = std::make_unique<sim::Simulator>(cfg);
    s->setPolicy(policies::makePolicy("static"));
    return s;
}

TEST(ExchangeAccounting, SameTierExchangeIsNotAPromotionOrDemotion)
{
    // Two DRAM nodes: a node-to-node exchange inside one tier moves no
    // page up or down, so neither pgexchange nor the promotion and
    // demotion books may tick (they used to).
    sim::MachineConfig cfg = sim::tinyTestMachine();
    cfg.nodes = {{TierKind::Dram, 1_MiB},
                 {TierKind::Dram, 1_MiB},
                 {TierKind::Pmem, 4_MiB}};
    auto sim = makeStaticSim(cfg);
    const Vaddr a = sim->mmap(4 * kPageSize);
    for (int i = 0; i < 4; ++i)
        sim->write(a + static_cast<Vaddr>(i) * kPageSize);
    Page *onNode0 = nullptr;
    Page *onNode1 = nullptr;
    sim->space().forEachPage([&](Page *pg) {
        if (pg->node() == 0)
            onNode0 = pg;
        else if (pg->node() == 1)
            onNode1 = pg;
    });
    ASSERT_NE(onNode0, nullptr);
    ASSERT_NE(onNode1, nullptr);
    sim->policy().onPageFreed(onNode0);
    sim->policy().onPageFreed(onNode1);

    ASSERT_TRUE(sim->exchangePages(onNode0, onNode1,
                                   sim::Simulator::ChargeMode::Inline));
    EXPECT_EQ(onNode0->node(), 1);
    EXPECT_EQ(onNode1->node(), 0);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgexchange), 0u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgpromoteSuccess), 0u);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgdemote), 0u);
    const auto violations = collectCounterViolations(*sim);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ExchangeAccounting, CrossTierExchangeCountsOnePromotionAndDemotion)
{
    auto sim = makeStaticSim();
    const std::size_t dramFrames = sim->memory().node(0).totalFrames();
    const Vaddr a = sim->mmap((dramFrames + 4) * kPageSize);
    for (std::size_t i = 0; i < dramFrames + 4; ++i)
        sim->write(a + i * kPageSize);
    Page *hotPm = nullptr;
    Page *coldDram = nullptr;
    sim->space().forEachPage([&](Page *pg) {
        if (sim->pageTier(pg) == TierKind::Pmem)
            hotPm = pg;
        else
            coldDram = pg;
    });
    ASSERT_NE(hotPm, nullptr);
    ASSERT_NE(coldDram, nullptr);
    sim->policy().onPageFreed(hotPm);
    sim->policy().onPageFreed(coldDram);

    ASSERT_TRUE(sim->exchangePages(hotPm, coldDram,
                                   sim::Simulator::ChargeMode::Inline));
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgexchange), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgpromoteSuccess), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgdemote), 1u);
    EXPECT_EQ(sim->pageTier(hotPm), TierKind::Dram);
    EXPECT_EQ(sim->pageTier(coldDram), TierKind::Pmem);
    // Fig. 4 arrival: hot on DRAM's active list, cold on PM's inactive.
    EXPECT_EQ(hotPm->list(), LruListKind::ActiveAnon);
    EXPECT_EQ(coldDram->list(), LruListKind::InactiveAnon);
    const auto violations = collectCounterViolations(*sim);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(EvictionAccounting, FileBackedEvictionIsWritebackNotSwap)
{
    auto sim = makeStaticSim();
    const Vaddr a = sim->mmap(kPageSize, /*anon=*/false, "file");
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    ASSERT_NE(pg, nullptr);
    ASSERT_FALSE(pg->isAnon());
    sim->policy().onPageFreed(pg);
    sim->evictPage(pg);

    // Written back to its file: a writeback, not swap-area traffic.
    EXPECT_EQ(sim->vmstat().global(VmItem::Pswpout), 0u);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgwriteback), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgsteal), 1u);
    EXPECT_EQ(sim->swap().usedSlots(), 0u);  // no slot consumed
    const auto violations = collectCounterViolations(*sim);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(EvictionAccounting, AnonymousEvictionStillCountsSwapOut)
{
    auto sim = makeStaticSim();
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    sim->policy().onPageFreed(pg);
    sim->evictPage(pg);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pswpout), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pgwriteback), 0u);
    EXPECT_EQ(sim->swap().usedSlots(), 1u);
}

TEST(EvictionAccounting, UnmapOfSwappedPageIsNotAPageIn)
{
    auto sim = makeStaticSim();
    const Vaddr a = sim->mmap(2 * kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    sim->policy().onPageFreed(pg);
    sim->evictPage(pg);
    ASSERT_EQ(sim->swap().usedSlots(), 1u);

    // Discarding the region frees the slot without a device read; the
    // old path routed this through pageIn() and inflated pswpin.
    sim->unmapRegion(a);
    EXPECT_EQ(sim->swap().usedSlots(), 0u);
    EXPECT_EQ(sim->swap().slotFrees(), 0u);
    EXPECT_EQ(sim->swap().slotReleases(), 1u);
    EXPECT_EQ(sim->vmstat().global(VmItem::Pswpin), 0u);
    const auto violations = collectCounterViolations(*sim);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(MigrationAccounting, LockedPageHeadedToItsOwnNodeIsANoOp)
{
    auto sim = makeStaticSim();
    const Vaddr a = sim->mmap(kPageSize);
    sim->write(a);
    Page *pg = sim->space().lookup(pageNumOf(a));
    ASSERT_EQ(pg->node(), 0);
    sim->policy().onPageFreed(pg);
    pg->setLocked(true);

    // Destination == current node: reported as a no-op before the
    // locked check, so the failure books stay clean.
    EXPECT_FALSE(
        sim->migratePage(pg, 0, sim::Simulator::ChargeMode::Inline));
    EXPECT_EQ(sim->vmstat().global(VmItem::PgpromoteFail), 0u);
    EXPECT_EQ(sim->vmstat().global(VmItem::PgdemoteFail), 0u);
    EXPECT_FALSE(pg->onLru());  // a failed move leaves it isolated

    // A locked page headed somewhere else is still a real failure.
    EXPECT_FALSE(
        sim->migratePage(pg, 1, sim::Simulator::ChargeMode::Inline));
    EXPECT_EQ(sim->vmstat().global(VmItem::PgdemoteFail), 1u);
    EXPECT_FALSE(pg->onLru());
    pg->setLocked(false);
}

// --- Differential: scenario summaries vs the manifest's vmstat -----------

/**
 * For every "<unit>.promotions" / "<unit>.demotions" metric a scenario
 * reports, the unit's vmstat export must report the same value as
 * "<unit>.pgpromote_success" / "<unit>.pgdemote" (the reducers read
 * the right items of the right unit). Reports the number of metrics
 * compared through @p compared (gtest ASSERT_* needs a void function).
 */
void
expectCountersMatchSummary(const ScenarioOutput &output,
                           std::size_t *compared)
{
    *compared = 0;
    const struct
    {
        const char *metric;
        const char *counter;
    } pairs[] = {{".promotions", ".pgpromote_success"},
                 {".demotions", ".pgdemote"}};
    for (const auto &[key, value] : output.summary) {
        for (const auto &p : pairs) {
            const std::string suffix = p.metric;
            if (key.size() <= suffix.size() ||
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) != 0)
                continue;
            const std::string unit =
                key.substr(0, key.size() - suffix.size());
            // Skip derived per-window metrics ("multiclock.w003.
            // promotions"); only unit totals have counter analogues.
            if (unit.find('.') != std::string::npos)
                continue;
            const auto it = output.vmstat.find(unit + p.counter);
            ASSERT_NE(it, output.vmstat.end()) << key << " has no "
                                               << unit << p.counter;
            EXPECT_EQ(static_cast<double>(it->second), value) << key;
            ++*compared;
        }
    }
}

TEST(StatsDifferential, Fig05PolicySweepPromotionsMatch)
{
    // Fig. 5 runs MULTI-CLOCK and all four tiered baselines; each
    // unit's promotion/demotion metrics must equal its vmstat export.
    const auto result =
        runScenario("fig05", quietOptions(2, smallContext()));
    EXPECT_TRUE(result.output.violations.empty());
    std::size_t compared = 0;
    expectCountersMatchSummary(result.output, &compared);
    // Two metrics per tiered policy.
    EXPECT_GE(compared, 2 * policies::tieredPolicyNames().size());
}

TEST(StatsDifferential, Fig08WindowedPromotionsMatch)
{
    // Fig. 8 (promotions per window) is the paper figure the counters
    // exist for: each unit's window series must sum to its vmstat
    // total, and the scenario-total key must sum the units.
    const auto result =
        runScenario("fig08", quietOptions(2, smallContext()));
    EXPECT_TRUE(result.output.violations.empty());
    std::size_t compared = 0;
    expectCountersMatchSummary(result.output, &compared);
    EXPECT_GE(compared, 2u);
    std::map<std::string, double> windowSums;
    for (const auto &[key, value] : result.output.summary) {
        const std::string suffix = ".promotions";
        const auto w = key.find(".w");
        if (w != std::string::npos && key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
            windowSums[key.substr(0, w)] += value;
    }
    ASSERT_FALSE(windowSums.empty());
    for (const auto &[unit, sum] : windowSums)
        EXPECT_EQ(sum, result.output.summary.at(unit + ".promotions"))
            << unit;

    std::uint64_t unitSum = 0;
    for (const auto &[key, value] : result.output.vmstat) {
        const std::string suffix = ".pgpromote_success";
        if (key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0 &&
            key.find("node") == std::string::npos)
            unitSum += value;
    }
    ASSERT_TRUE(result.output.vmstat.count("pgpromote_success"));
    EXPECT_EQ(result.output.vmstat.at("pgpromote_success"), unitSum);
    EXPECT_GT(unitSum, 0u);
}

// --- Determinism across job counts ----------------------------------------

TEST(StatsDeterminism, StatsArtifactsIdenticalAcrossJobCounts)
{
    auto ctx = smallContext();
    ctx.stats = true;  // what mclock_bench --stats sets
    const auto serial = runScenario("fig08", quietOptions(1, ctx));
    const auto parallel = runScenario("fig08", quietOptions(4, ctx));

    const auto &a = serial.output.statsArtifacts;
    const auto &b = parallel.output.statsArtifacts;
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    bool sawCsv = false, sawJsonl = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].filename, b[i].filename);
        EXPECT_EQ(a[i].contents, b[i].contents) << a[i].filename;
        if (a[i].filename.find("vmstat.csv") != std::string::npos) {
            sawCsv = true;
            EXPECT_EQ(a[i].contents.rfind("time_ns,", 0), 0u)
                << a[i].filename;
        }
        if (a[i].filename.find("trace.jsonl") != std::string::npos) {
            sawJsonl = true;
            if (!a[i].contents.empty()) {
                EXPECT_EQ(a[i].contents.rfind("{\"unit\":", 0), 0u)
                    << a[i].filename;
            }
        }
    }
    EXPECT_TRUE(sawCsv);
    EXPECT_TRUE(sawJsonl);
}

}  // namespace
