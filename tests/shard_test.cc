/**
 * @file
 * Sharded execution model tests (sim/shard_event, sim/sharded, and the
 * shard_bigmem harness family).
 *
 * The headline contract is worker-count bit-identity: a sharded
 * machine's shard partition is semantic data, the worker thread count
 * is pure execution width, and every observable result — merged
 * metrics, merged vmstat, the seniority-ordered event stream, the
 * epoch count — must be byte-identical whether one thread or eight
 * drive the shards. The 8-worker runs here double as the TSan
 * exercise: the whole suite runs under the tsan preset in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/units.hh"
#include "harness/golden.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/shard_event.hh"
#include "sim/sharded.hh"
#include "sim/simulator.hh"

using namespace mclock;
using namespace mclock::sim;

namespace {

// --- Event log and seniority order ---------------------------------------

TEST(ShardEventTest, SeniorityOrdersTimeShardSeq)
{
    const ShardEvent a{100, 0, 5, ShardEventKind::Promote, 1, 0};
    const ShardEvent b{100, 1, 0, ShardEventKind::Promote, 2, 0};
    const ShardEvent c{99, 7, 9, ShardEventKind::Demote, 3, 0};
    const ShardEvent d{100, 0, 6, ShardEventKind::Demote, 4, 0};
    EXPECT_TRUE(shardEventSenior(c, a));  // earlier time wins
    EXPECT_TRUE(shardEventSenior(a, b));  // lower shard breaks time tie
    EXPECT_TRUE(shardEventSenior(a, d));  // lower seq breaks shard tie
    EXPECT_FALSE(shardEventSenior(a, a));
}

TEST(ShardEventTest, LogSequenceIsMonotonicAcrossDrains)
{
    ShardEventLog log;
    log.bind(3);
    log.append(ShardEventKind::Promote, 10, 1, 0);
    log.append(ShardEventKind::Demote, 10, 2, 0);
    auto first = log.drain();
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].seq, 0u);
    EXPECT_EQ(first[1].seq, 1u);
    EXPECT_EQ(first[0].shard, 3u);
    EXPECT_EQ(log.size(), 0u);

    log.append(ShardEventKind::Exchange, 20, 3, 4);
    auto second = log.drain();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].seq, 2u);  // continues, never restarts
}

// --- Machine partitioning ------------------------------------------------

TEST(ShardMachineTest, SingleShardIsTheWholeMachine)
{
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 4_MiB}, {TierKind::Pmem, 24_MiB}};
    whole.seed = 1234;
    whole.swapPages = 100;
    const MachineConfig cfg = shardMachine(whole, 1, 0);
    EXPECT_EQ(cfg.seed, whole.seed);  // seed untouched: bit-identical
    EXPECT_EQ(cfg.nodes[0].bytes, whole.nodes[0].bytes);
    EXPECT_EQ(cfg.swapPages, whole.swapPages);
}

TEST(ShardMachineTest, PartitionDividesCapacitiesAndForksSeeds)
{
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 32_MiB}, {TierKind::Pmem, 192_MiB}};
    whole.seed = 42;
    whole.swapPages = 64;

    std::vector<std::uint64_t> seeds;
    for (unsigned s = 0; s < 8; ++s) {
        const MachineConfig cfg = shardMachine(whole, 8, s);
        EXPECT_EQ(cfg.nodes[0].bytes, 4_MiB);
        EXPECT_EQ(cfg.nodes[1].bytes, 24_MiB);
        EXPECT_EQ(cfg.swapPages, 8u);
        EXPECT_EQ(cfg.nodes[0].bytes % kPageSize, 0u);
        seeds.push_back(cfg.seed);
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end())
        << "per-shard seed streams must be distinct";
}

TEST(ShardMachineTest, TinyCapacitiesFloorAtOnePage)
{
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 2 * kPageSize}};
    whole.swapPages = 3;
    const MachineConfig cfg = shardMachine(whole, 8, 5);
    EXPECT_EQ(cfg.nodes[0].bytes, kPageSize);
    EXPECT_EQ(cfg.swapPages, 1u);
}

TEST(ShardMachineTest, RemainderPagesConserveCapacity)
{
    // 1027 DRAM / 2050 PM pages and 69 swap slots do not divide by 8.
    // The remainders must go to the low-numbered shards, one page
    // each, and the shard shares must sum back to the whole machine
    // exactly — the old floor(bytes/S) partition silently dropped up
    // to S-1 pages per node.
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1027 * kPageSize},
                   {TierKind::Pmem, 2050 * kPageSize}};
    whole.swapPages = 69;

    std::size_t dram = 0, pm = 0, swp = 0;
    for (unsigned s = 0; s < 8; ++s) {
        const MachineConfig cfg = shardMachine(whole, 8, s);
        dram += cfg.nodes[0].bytes / kPageSize;
        pm += cfg.nodes[1].bytes / kPageSize;
        swp += cfg.swapPages;
        // 1027 = 8*128 + 3: shards 0-2 carry the extra page.
        EXPECT_EQ(cfg.nodes[0].bytes / kPageSize, s < 3 ? 129u : 128u);
        EXPECT_EQ(cfg.nodes[1].bytes / kPageSize, s < 2 ? 257u : 256u);
        EXPECT_EQ(cfg.swapPages, s < 5 ? 9u : 8u);
    }
    EXPECT_EQ(dram, 1027u);
    EXPECT_EQ(pm, 2050u);
    EXPECT_EQ(swp, 69u);
}

// --- Deterministic parallel execution ------------------------------------

/**
 * Small-but-busy sharded run: each shard streams a strided workload
 * ~2x its DRAM slice so promotions and demotions actually flow.
 * Returns the full observable state as a comparable string.
 */
std::string
runFingerprint(unsigned workers, std::uint64_t budget)
{
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 2_MiB}, {TierKind::Pmem, 8_MiB}};
    whole.seed = 7;

    ShardOptions opts;
    opts.shards = 4;
    opts.workers = workers;
    opts.epochPromoteBudget = budget;

    ShardedSimulator host(whole, opts);
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
        bases.push_back(host.shard(s).mmap(1_MiB));
    }

    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        // Shards touch different strides so their event streams differ
        // (a symmetric workload would hide ordering bugs).
        const std::size_t pages = 1_MiB / kPageSize;
        for (std::size_t i = 0; i < pages * 4; ++i) {
            const std::size_t page = (i * (s + 1) + epoch) % pages;
            sim.read(bases[s] + page * kPageSize);
        }
        return epoch < 5;
    });

    std::string fp;
    fp += "epochs=" + std::to_string(host.epochs());
    fp += " makespan=" + std::to_string(host.makespan());
    fp += " appOps=" + std::to_string(host.totalAppOps());
    fp += " events=" + std::to_string(host.events().size());
    for (const auto &ev : host.events()) {
        fp += "\n" + std::to_string(ev.time) + "/" +
              std::to_string(ev.shard) + "/" + std::to_string(ev.seq) +
              "/" + std::to_string(static_cast<int>(ev.kind)) + "/" +
              std::to_string(ev.vpn) + "/" + std::to_string(ev.arg);
    }
    for (const auto &[key, value] : host.mergedVmstat().snapshot())
        fp += "\n" + key + "=" + std::to_string(value);
    const Metrics merged = host.mergedMetrics();
    fp += "\naccesses=" + std::to_string(merged.totalAccesses());
    return fp;
}

TEST(ShardedSimulatorTest, WorkerCountNeverChangesResults)
{
    const std::string w1 = runFingerprint(1, 0);
    // Width 3 over 4 shards: the calling thread owns shards 0 and 3.
    const std::string w3 = runFingerprint(3, 0);
    const std::string w4 = runFingerprint(4, 0);
    const std::string w8 = runFingerprint(8, 0);  // clamps to 4 shards
    EXPECT_EQ(w1, w3);
    EXPECT_EQ(w1, w4);
    EXPECT_EQ(w1, w8);
    // The run did real tiering work, or this test proves nothing.
    EXPECT_NE(w1.find("pgpromote_success"), std::string::npos);
}

TEST(ShardedSimulatorTest, WorkerCountNeverChangesBudgetedResults)
{
    const std::string w1 = runFingerprint(1, 8);
    const std::string w3 = runFingerprint(3, 8);
    const std::string w4 = runFingerprint(4, 8);
    EXPECT_EQ(w1, w3);
    EXPECT_EQ(w1, w4);
}

TEST(ShardedSimulatorTest, MergedEventsAreInSeniorityOrderPerEpoch)
{
    // Within one epoch's merge the stream is seniority-sorted; across
    // epochs, time can only move forward per shard, and the per-shard
    // (time, seq) subsequence must stay strictly increasing overall.
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 4_MiB}};
    ShardOptions opts;
    opts.shards = 2;
    opts.workers = 2;
    ShardedSimulator host(whole, opts);
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
        bases.push_back(host.shard(s).mmap(512_KiB));
    }
    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        const std::size_t pages = 512_KiB / kPageSize;
        for (std::size_t i = 0; i < pages * 3; ++i)
            sim.read(bases[s] + ((i + s) % pages) * kPageSize);
        return epoch < 3;
    });
    ASSERT_FALSE(host.events().empty());
    std::uint64_t lastSeq[2] = {0, 0};
    bool seen[2] = {false, false};
    for (const auto &ev : host.events()) {
        ASSERT_LT(ev.shard, 2u);
        if (seen[ev.shard]) {
            EXPECT_GT(ev.seq, lastSeq[ev.shard]);
        }
        lastSeq[ev.shard] = ev.seq;
        seen[ev.shard] = true;
    }
}

TEST(ShardedSimulatorTest, PromoteBudgetDefersDirectPromotions)
{
    // Drive promotePage() directly so the budget path is exercised
    // independent of any policy's promote-vs-exchange choice: each
    // shard demotes two resident pages to make DRAM headroom, then
    // attempts two promotions against an epoch grant of one.
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 4_MiB}};
    ShardOptions opts;
    opts.shards = 2;
    opts.epochPromoteBudget = 2;  // grant = max(1, 2/2) = 1 per shard

    ShardedSimulator host(whole, opts);
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("static", {}));
        bases.push_back(host.shard(s).mmap(1_MiB));
    }
    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        const std::size_t pages = 1_MiB / kPageSize;
        if (epoch == 0) {
            for (std::size_t i = 0; i < pages; ++i)
                sim.read(bases[s] + i * kPageSize);
            return true;
        }
        std::vector<Page *> dram, pm;
        sim.space().forEachPage([&](Page *pg) {
            (pg->node() == 0 ? dram : pm).push_back(pg);
        });
        EXPECT_GE(dram.size(), 2u);
        for (int i = 0; i < 2; ++i) {
            sim.policy().onPageFreed(dram[i]);  // isolate off the LRU
            EXPECT_TRUE(sim.demotePage(
                dram[i], Simulator::ChargeMode::Background));
        }
        pm.clear();
        sim.space().forEachPage([&](Page *pg) {
            if (pg->node() != 0)
                pm.push_back(pg);
        });
        EXPECT_GE(pm.size(), 2u);
        sim.policy().onPageFreed(pm[0]);
        sim.policy().onPageFreed(pm[1]);
        EXPECT_TRUE(sim.promotePage(
            pm[0], Simulator::ChargeMode::Background));
        EXPECT_FALSE(sim.promotePage(  // grant exhausted: deferred
            pm[1], Simulator::ChargeMode::Background));
        return false;
    });

    const auto snapshot = host.mergedVmstat().snapshot();
    EXPECT_EQ(snapshot.at("pgpromote_deferred"), 2u);  // one per shard
    // The merged stream carries the demotions and the one granted
    // promotion per shard, never the deferred attempts.
    std::size_t promotes = 0;
    for (const auto &ev : host.events()) {
        if (ev.kind == ShardEventKind::Promote)
            ++promotes;
    }
    EXPECT_EQ(promotes, 2u);
}

TEST(ShardedSimulatorTest, CoordinatorCountsMergesAndEpochs)
{
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 2_MiB}};
    ShardOptions opts;
    opts.shards = 2;
    ShardedSimulator host(whole, opts);
    for (unsigned s = 0; s < host.shards(); ++s)
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s)
        bases.push_back(host.shard(s).mmap(256_KiB));
    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        sim.read(bases[s]);
        return epoch < 2;
    });
    EXPECT_EQ(host.epochs(), 3u);
    const auto snapshot = host.mergedVmstat().snapshot();
    // One shard_epoch per (shard, epoch); one pgshard_merge event total
    // count accumulated at the barriers (counted even when zero events
    // merged — the *merge* happened).
    EXPECT_EQ(snapshot.at("shard_epoch"), 6u);
    ASSERT_TRUE(snapshot.count("pgshard_merge"));
    EXPECT_EQ(snapshot.at("pgshard_merge"),
              static_cast<std::uint64_t>(host.events().size()));
    // Coordinator trace carries one shard_merge record per epoch.
    std::size_t merges = 0;
    for (const auto &ev : host.trace().events()) {
        if (ev.type == stats::TraceEventType::ShardMerge)
            ++merges;
    }
    EXPECT_EQ(merges, 3u);
}

// --- Harness family ------------------------------------------------------

/** Tiny context so the harness scenarios stay fast in this suite. */
harness::RunContext
tinyShardContext(unsigned workers)
{
    harness::RunContext ctx = harness::goldenContext();
    ctx.shards = workers;
    ctx.params["records"] = 600;
    ctx.params["epochs"] = 2;
    ctx.params["ops"] = 1500;
    return ctx;
}

harness::MetricMap
runScenarioSummary(const std::string &name,
                   const harness::RunContext &ctx)
{
    const harness::Scenario *sc = harness::findScenario(name);
    EXPECT_NE(sc, nullptr) << name;
    harness::RunnerOptions opts;
    opts.jobs = 1;
    opts.context = ctx;
    opts.writeArtifacts = false;
    opts.writeManifest = false;
    opts.quiet = true;
    const auto report = harness::runScenarios({sc}, opts);
    EXPECT_TRUE(report.clean());
    return report.results.front().output.summary;
}

TEST(ShardScenarioTest, WorkerWidthsProduceIdenticalSummaries)
{
    // Full golden profile (not the tiny context): the workload must
    // overflow each shard's DRAM slice or there are no promotions and
    // the equality proves nothing.
    harness::RunContext w1ctx = harness::goldenContext();
    w1ctx.shards = 1;
    harness::RunContext w8ctx = harness::goldenContext();
    w8ctx.shards = 8;
    const auto w1 = runScenarioSummary("shard_bigmem", w1ctx);
    const auto w8 = runScenarioSummary("shard_bigmem", w8ctx);
    EXPECT_EQ(w1, w8);
    EXPECT_GT(w1.at("multiclock.promotions"), 0.0);
}

TEST(ShardScenarioTest, PinnedWidthVariantsEqualTheBaseScenario)
{
    const auto base = runScenarioSummary("shard_bigmem",
                                         tinyShardContext(1));
    const auto x4 = runScenarioSummary("shard_bigmem_x4",
                                       tinyShardContext(1));
    const auto x8 = runScenarioSummary("shard_bigmem_x8",
                                       tinyShardContext(1));
    EXPECT_EQ(base, x4);
    EXPECT_EQ(base, x8);
}

TEST(ShardScenarioTest, BudgetScenarioDefersPromotions)
{
    harness::RunContext ctx = harness::goldenContext();
    ctx.shards = 4;
    const auto summary =
        runScenarioSummary("shard_bigmem_budget", ctx);
    EXPECT_GT(summary.at("multiclock.deferred"), 0.0);
    EXPECT_EQ(summary.at("static.deferred"), 0.0);
}

}  // namespace
