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
 * drive the shards (the harness scenarios' identity: RunIdentity in
 * harness_test). The 8-worker runs here double as the TSan
 * exercise: the whole suite runs under the tsan preset in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "base/hash.hh"
#include "base/units.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/shard_event.hh"
#include "sim/sharded.hh"
#include "sim/simulator.hh"

#include "harness_fixtures.hh"

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

TEST(ShardMachineTest, ShardsOfAStatsHostRunNoSampler)
{
    MachineConfig whole = tinyTestMachine();
    whole.stats.sampler = true;
    ShardedSimulator host(whole, {/*shards=*/4});
    for (unsigned s = 0; s < host.shards(); ++s)
        EXPECT_EQ(host.shard(s).sampler(), nullptr) << "shard " << s;
    // One shard is the whole host, whose series finishUnit exports.
    ShardedSimulator single(whole, {/*shards=*/1});
    EXPECT_NE(single.shard(0).sampler(), nullptr);
}

// --- Deterministic parallel execution ------------------------------------

/**
 * Small-but-busy sharded run: each shard streams a strided workload
 * ~2x its DRAM slice, uncached, then idles through a 1 ms kpromoted
 * scan each epoch, so promotions and demotions actually flow. Shards
 * carry unequal work and live unequally long (shard s stops after
 * epoch 3 + s), so without a budget the scheduler lets some shards run
 * epochs ahead of others. Returns a hash of the full observable state —
 * the coordinator trace included, whose `shard_merge` clocks the merge
 * has to rebuild from per-epoch shard clocks.
 */
std::uint64_t
runFingerprint(unsigned workers, std::uint64_t budget)
{
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 2_MiB}, {TierKind::Pmem, 8_MiB}};
    whole.seed = 7;
    whole.cache.enabled = false;

    ShardOptions opts;
    opts.shards = 4;
    opts.workers = workers;
    opts.epochPromoteBudget = budget;

    ShardedSimulator host(whole, opts);
    std::vector<Vaddr> bases;
    policies::PolicyOptions policy;
    policy.scanInterval = 1_ms;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("multiclock", policy));
        bases.push_back(host.shard(s).mmap(1_MiB));
    }

    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        // Shards touch different strides so their event streams differ
        // (a symmetric workload would hide ordering bugs).
        const std::size_t pages = 1_MiB / kPageSize;
        for (std::size_t i = 0; i < pages * (2 + s); ++i) {
            const std::size_t page = (i * (s + 1) + epoch) % pages;
            sim.read(bases[s] + page * kPageSize);
        }
        sim.compute(1_ms);
        return epoch < 3 + s;
    });

    // The run did real tiering work, or equal hashes prove nothing.
    EXPECT_EQ(host.epochs(), 7u);
    EXPECT_GT(host.mergedVmstat().global(stats::VmItem::PgpromoteSuccess),
              0u);
    EXPECT_FALSE(host.trace().events().empty());

    Fnv1a h;
    h.word(host.epochs()).word(host.makespan()).word(host.totalAppOps());
    h.word(host.events().size());
    for (const auto &ev : host.events()) {
        h.word(ev.time).word(ev.shard).word(ev.seq);
        h.word(static_cast<std::uint64_t>(ev.kind)).word(ev.vpn).word(ev.arg);
    }
    for (const auto &[key, value] : host.mergedVmstat().snapshot())
        h.field(key).word(value);
    for (const auto &ev : host.trace().events()) {
        h.word(static_cast<std::uint64_t>(ev.type)).word(ev.time);
        h.word(ev.arg0).word(ev.arg1);
    }
    return h.word(host.mergedMetrics().totalAccesses()).value();
}

TEST(ShardedSimulatorTest, WorkerCountNeverChangesResults)
{
    const std::uint64_t w1 = runFingerprint(1, 0);
    // Width 3 over 4 shards: one worker always runs two shards' epochs.
    EXPECT_EQ(runFingerprint(3, 0), w1);
    EXPECT_EQ(runFingerprint(4, 0), w1);
    EXPECT_EQ(runFingerprint(8, 0), w1);  // clamps to 4 shards
}

TEST(ShardedSimulatorTest, WorkerCountNeverChangesBudgetedResults)
{
    const std::uint64_t w1 = runFingerprint(1, 8);
    EXPECT_EQ(runFingerprint(3, 8), w1);
    EXPECT_EQ(runFingerprint(4, 8), w1);
    EXPECT_EQ(runFingerprint(8, 8), w1);
}

TEST(ShardedSimulatorTest, MergeClockIsEachEpochsMakespan)
{
    // Without a budget every merge runs after shards have raced ahead,
    // so each `shard_merge` clock must come from the shards' clocks at
    // the end of *that* epoch (a stopped shard keeps its final clock),
    // never from where the shards stand when the merge runs.
    constexpr unsigned kShards = 3;
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 4_MiB}};
    ShardOptions opts;
    opts.shards = kShards;
    opts.workers = 3;
    ShardedSimulator host(whole, opts);
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
        bases.push_back(host.shard(s).mmap(256_KiB));
    }
    const std::uint64_t lastEpoch[kShards] = {4, 5, 2};
    std::vector<std::vector<SimTime>> ends(kShards);  // per-shard slots
    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        // Shard 2 runs the fewest epochs but the most work each, so
        // its final clock is the makespan of epochs it never ran.
        const std::size_t pages = 256_KiB / kPageSize;
        for (std::size_t i = 0; i < pages * (1 + 8 * (s == 2)); ++i)
            sim.read(bases[s] + ((i + epoch) % pages) * kPageSize);
        ends[s].push_back(sim.now());
        return epoch < lastEpoch[s];
    });
    ASSERT_EQ(host.epochs(), 6u);
    std::vector<SimTime> expected;
    for (std::uint64_t e = 0; e < host.epochs(); ++e) {
        SimTime t = 0;
        for (const auto &shard : ends)
            t = std::max(t, shard[std::min<std::size_t>(e, shard.size() - 1)]);
        expected.push_back(t);
    }
    std::vector<SimTime> got;
    for (const auto &ev : host.trace().events()) {
        if (ev.type == stats::TraceEventType::ShardMerge) {
            EXPECT_EQ(ev.arg0, got.size());
            got.push_back(ev.time);
        }
    }
    EXPECT_EQ(got, expected);
    // The run is lopsided enough that the final makespan would differ.
    EXPECT_LT(expected.front(), host.makespan());
}

TEST(ShardedSimulatorTest, GovernedEpochsNeverOverlap)
{
    // Under a promote budget, grant(e+1) depends on merge(e): no shard
    // may start epoch e+1 before every shard has finished epoch e.
    constexpr unsigned kShards = 4;
    constexpr std::uint64_t kEpochs = 6;
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 4_MiB}};
    ShardOptions opts;
    opts.shards = kShards;
    opts.workers = 4;
    opts.epochPromoteBudget = 4;
    ShardedSimulator host(whole, opts);
    std::vector<Vaddr> bases;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
        bases.push_back(host.shard(s).mmap(256_KiB));
    }
    std::array<std::atomic<unsigned>, kEpochs> finished{};
    std::atomic<unsigned> early{0};
    host.run([&](Simulator &sim, unsigned s, std::uint64_t epoch) {
        if (epoch > 0 && finished[epoch - 1].load() != kShards)
            early.fetch_add(1);
        // Unequal work, so a free-running schedule would overlap.
        const std::size_t pages = 256_KiB / kPageSize;
        for (std::size_t i = 0; i < pages * (1 + 3 * s); ++i)
            sim.read(bases[s] + (i % pages) * kPageSize);
        finished[epoch].fetch_add(1);
        return epoch + 1 < kEpochs;
    });
    EXPECT_EQ(early.load(), 0u);
    EXPECT_EQ(host.epochs(), kEpochs);
    for (const auto &count : finished)
        EXPECT_EQ(count.load(), kShards);
}

TEST(ShardedSimulatorTest, UngovernedShardsRunAheadOfOtherShards)
{
    // Without a budget nothing flows back from the merge, so there is
    // no per-epoch barrier: shard 1 holds its epoch 0 open until shard
    // 0 has started epoch 1, which a lock-stepped schedule never lets
    // happen (the wait would time out).
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 2_MiB}};
    ShardOptions opts;
    opts.shards = 2;
    opts.workers = 2;
    ShardedSimulator host(whole, opts);
    for (unsigned s = 0; s < host.shards(); ++s)
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
    std::atomic<bool> shard0Ahead{false};
    bool sawAhead = false;  // written by shard 1's driver only
    host.run([&](Simulator &, unsigned s, std::uint64_t epoch) {
        if (s == 0) {
            if (epoch == 1)
                shard0Ahead.store(true);
            return epoch < 1;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (!shard0Ahead.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        sawAhead = shard0Ahead.load();
        return false;
    });
    EXPECT_TRUE(sawAhead);
    EXPECT_EQ(host.epochs(), 2u);
}

TEST(ShardedSimulatorTest, RunAfterAllShardsFinishedPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MachineConfig whole;
    whole.nodes = {{TierKind::Dram, 1_MiB}, {TierKind::Pmem, 2_MiB}};
    ShardOptions opts;
    opts.shards = 2;
    ShardedSimulator host(whole, opts);
    for (unsigned s = 0; s < host.shards(); ++s)
        host.shard(s).setPolicy(policies::makePolicy("multiclock", {}));
    unsigned calls = 0;
    host.run([&](Simulator &, unsigned, std::uint64_t) {
        ++calls;
        return false;
    });
    EXPECT_EQ(calls, 2u);
    // Every shard has finished, so a second run() has nothing to do:
    // it must fail loudly instead of returning as if it had run.
    EXPECT_DEATH(host.run([](Simulator &, unsigned, std::uint64_t) {
        return true;
    }),
                 "every shard finished");
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
    // count accumulated at the merges (counted even when zero events
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
tinyShardContext()
{
    harness::RunContext ctx = harness::goldenContext();
    ctx.params["records"] = 600;
    ctx.params["epochs"] = 2;
    ctx.params["ops"] = 1500;
    return ctx;
}

TEST(ShardScenarioTest, PinnedWidthVariantsEqualTheBaseScenario)
{
    // --shards pins the worker width; shard_bigmem must not notice.
    harness::RunContext ctx = tinyShardContext();
    const auto base = harness::runSummary("shard_bigmem", ctx);
    for (unsigned width : {4u, 8u}) {
        ctx.shards = width;
        EXPECT_EQ(harness::runSummary("shard_bigmem", ctx), base) << width;
    }
}

TEST(ShardScenarioTest, BudgetScenarioDefersPromotions)
{
    harness::RunContext ctx = harness::goldenContext();
    ctx.shards = 4;
    const auto summary = harness::runSummary("shard_bigmem_budget", ctx);
    EXPECT_GT(summary.at("multiclock.deferred"), 0.0);
    EXPECT_EQ(summary.at("static.deferred"), 0.0);
}

}  // namespace
