/**
 * @file
 * Multi-tenant QoS scenarios: memory-cgroup isolation on a sharded KV
 * host (sim::ShardedSimulator, 4 shards; every shard hosts the same
 * tenant mix and owns a shard-local MemCgroupManager, so all quota
 * state is worker-width independent by construction).
 *
 * Two members:
 *  - tenant_noisy_neighbor: a latency-sensitive zipfian KV tenant (the
 *    victim) sharing each shard with a footprint-heavy scanning tenant
 *    whose popularity churns every epoch (the thrasher). Three units
 *    compare the victim's exact p99 access latency
 *      baseline  — victim alone,
 *      isolated  — thrasher under a DRAM cap + promotion quota, victim
 *                  under memory.low protection,
 *      shared    — both tenants unconstrained (accounting only).
 *    The figure of merit: isolation keeps the victim's p99 at the
 *    baseline value while the shared host degrades it.
 *  - tenant_churn: tenant arrival/departure waves over-committing the
 *    host, exercising capped allocation fallback, limit-triggered
 *    demotion cascades, swap pressure, and full teardown (unmap with
 *    swapped-out pages — the slot-release path). Charges must return
 *    to zero after the last departure.
 *
 * Both scenarios are golden-eligible: the shard count is scenario data
 * and `--shards N` only picks the worker width, which by the sharded
 * determinism contract never changes results.
 */

#include <memory>
#include <string>

#include "base/rng.hh"
#include "harness/scenario_common.hh"
#include "sim/sharded.hh"
#include "vm/memcg.hh"
#include "workloads/kvstore.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace harness {

namespace {

using stats::VmItem;

/** Fixed semantic partition count (see file comment). */
constexpr unsigned kTenantShards = 4;

/** Merge one tenant's shard-local histogram into @p into. */
void
mergeHist(LatencyHist &into, const MemCgroup &cg)
{
    for (const auto &[lat, count] : cg.latencyHist())
        into[lat] += count;
}

// --- tenant_noisy_neighbor -------------------------------------------------

/** The noisy-neighbor unit names, in TenantMix order. */
const std::vector<std::string> kNoisyUnits = {"baseline", "isolated",
                                              "shared"};

/** One shard's tenants: cgroups, stores, and request generators. */
struct TenantShard
{
    MemCgroupId victimId = kRootMemcg;
    MemCgroupId thrasherId = kRootMemcg;
    std::unique_ptr<workloads::KvStore> victim;
    std::unique_ptr<workloads::KvStore> thrasher;
    Rng victimRng{0};
    Rng thrasherRng{0};
    std::unique_ptr<workloads::ScrambledZipfianGenerator> victimZipf;
    std::unique_ptr<workloads::ScrambledZipfianGenerator> thrasherZipf;
};

/** Build shard @p s's tenants (coordinator thread, before run()). */
TenantShard
makeTenantShard(sim::Simulator &sim, const TenantMixUnit &unit, unsigned s)
{
    TenantShard t;

    // Victim limits: memory.low covers the whole working set in the
    // isolated mix, so global reclaim never touches its pages while
    // the thrasher has anything unprotected resident.
    MemCgroupLimits victimLimits;
    if (unit.mix == TenantMix::Isolated)
        victimLimits.lowPages = {320};
    t.victimId = sim.memcg().create("victim", victimLimits);

    workloads::KvStoreConfig kv;
    kv.hashBuckets = 1u << 12;
    kv.memcg = t.victimId;
    t.victim = std::make_unique<workloads::KvStore>(sim, kv);
    t.victimRng = Rng(unit.victimSeeds[s]);
    t.victimZipf = std::make_unique<workloads::ScrambledZipfianGenerator>(
        unit.victimRecords);

    if (unit.mix == TenantMix::Baseline)
        return t;

    // Thrasher limits: in the isolated mix a hard DRAM cap plus a
    // small per-epoch promotion quota; in the shared mix nothing — the
    // cgroup exists purely so its latencies/charges are observable.
    MemCgroupLimits thrasherLimits;
    if (unit.mix == TenantMix::Isolated) {
        thrasherLimits.maxPages = {96};
        thrasherLimits.promoteQuantum = 8;
    }
    t.thrasherId = sim.memcg().create("thrasher", thrasherLimits);

    kv.memcg = t.thrasherId;
    t.thrasher = std::make_unique<workloads::KvStore>(sim, kv);
    t.thrasherRng = Rng(unit.thrasherSeeds[s]);
    t.thrasherZipf =
        std::make_unique<workloads::ScrambledZipfianGenerator>(
            unit.thrasherRecords);
    return t;
}

Scenario
noisyNeighborScenario()
{
    Scenario sc;
    sc.name = "tenant_noisy_neighbor";
    sc.title = "Tenant isolation vs. a churning noisy neighbor";
    sc.workload = "kvstore";
    sc.policies = {"multiclock"};
    sc.params = {{"victim_records", 1, 100000},
                 {"thrasher_records", 1, 100000},
                 kEpochsParam,
                 {"victim_ops", 1, kMaxParamOps},
                 {"thrasher_ops", 1, kMaxParamOps}};
    sc.goldenEligible = true;
    sc.expand = [](const RunContext &ctx) {
        const auto machine = shardedMachine(ctx, ctx.golden ? 8_MiB : 16_MiB,
                                            ctx.golden ? 32_MiB : 64_MiB);
        TenantMixUnit unit{
            TenantMix::Baseline,
            ctx.param("victim_records", ctx.golden ? 600 : 1200),
            ctx.param("thrasher_records", ctx.golden ? 3000 : 6000),
            ctx.param("epochs", ctx.golden ? 4 : 8),
            ctx.param("victim_ops", ctx.golden ? 6000 : 24000),
            ctx.param("thrasher_ops", ctx.golden ? 9000 : 36000),
            shardSeeds(ctx, kTenantShards, 32, 0xfeed5eed00ull),
            shardSeeds(ctx, kTenantShards, 48, 0xfade5eed00ull)};
        std::vector<RunUnit> units;
        for (TenantMix mix : {TenantMix::Baseline, TenantMix::Isolated,
                              TenantMix::Shared}) {
            unit.mix = mix;
            units.push_back({kNoisyUnits[static_cast<std::size_t>(mix)],
                             {{"multiclock", machine}, unit}});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        appendf(out.text,
                "%u shards; victim p99 is exact (merged discrete "
                "histograms).\n",
                kTenantShards);
        const std::vector<Column> columns = {
            {"mix", "mix", 10},
            {"victim_p99_ns", "victim_p99_ns", 14},
            {"victim_mean_ns", "victim_mean", 14, 1},
            {"victim_accesses", ""},
            {"thrasher_p99_ns", ""},
            {"promotions", "promotions", 11},
            {"demotions", "demotions", 10},
            {"tenant_demotions", ""},
            {"promote_deferred", "deferred", 9},
            {"alloc_fallbacks", ""},
            {"limit_reclaims", "reclaims", 9}};
        Table table(columns);
        for (std::size_t i = 0; i < records.size(); ++i)
            table.row(kNoisyUnits[i], metricCells(columns, records[i].metrics));
        out.text += table.text();

        // The scenario's figure of merit, pinned in the golden
        // summary: isolation holds the victim's p99 at baseline
        // (ratio 1.0) while the shared host lets the thrasher move it.
        if (records.size() == kNoisyUnits.size()) {
            const double base =
                records[0].metrics.at("victim_p99_ns");
            const double iso = records[1].metrics.at("victim_p99_ns");
            const double shared =
                records[2].metrics.at("victim_p99_ns");
            if (base > 0.0) {
                out.summary["victim_p99_ratio_isolated"] = iso / base;
                out.summary["victim_p99_ratio_shared"] = shared / base;
                appendf(out.text,
                        "victim p99 vs baseline: isolated %.3fx, "
                        "shared %.3fx\n",
                        iso / base, shared / base);
            }
        }
        appendf(out.text, "wrote %s.csv\n", sc.name.c_str());
        out.artifacts.push_back({sc.name + ".csv", table.csv()});
    };
    return sc;
}

// --- tenant_churn ----------------------------------------------------------

const std::vector<std::string> kChurnUnits = {"multiclock", "static"};

/** Arrival waves: tenant w arrives at epoch w, lives kTenantLife. */
constexpr std::uint64_t kChurnWaves = 4;
constexpr std::uint64_t kTenantLife = 3;

/** One live tenant's shard-local state. */
struct ChurnTenant
{
    MemCgroupId id = kRootMemcg;
    Vaddr region = 0;
    std::uint64_t arrival = 0;
    bool departed = false;
};

Scenario
churnScenario()
{
    Scenario sc;
    sc.name = "tenant_churn";
    sc.title = "Tenant arrival/departure waves under caps and swap";
    sc.workload = "synthetic";
    sc.policies = kChurnUnits;
    // Past 1024 pages the tenants overflow the host's swap.
    sc.params = {{"tenant_pages", 1, 1024}, {"sweeps", 1, 1000}};
    sc.goldenEligible = true;
    sc.expand = [](const RunContext &ctx) {
        const ChurnUnit churn{
            ctx.param("tenant_pages", 384),
            ctx.param("sweeps", ctx.golden ? 2 : 4),
            shardSeeds(ctx, kTenantShards, 64, 0xc0ffee5eed00ull)};
        std::vector<RunUnit> units;
        for (const auto &policy : kChurnUnits) {
            HostSpec host{policy, shardedMachine(ctx, 4_MiB, 8_MiB)};
            host.machine.swapPages = 16384;
            units.push_back({policy, {host, churn}});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        appendf(out.text,
                "%llu waves x %llu-epoch lifetimes over %u shards\n",
                static_cast<unsigned long long>(kChurnWaves),
                static_cast<unsigned long long>(kTenantLife),
                kTenantShards);
        const std::vector<Column> columns = {
            {"policy", "policy", 12},
            {"swap_outs", "swap_outs", 9},
            {"alloc_fallbacks", "fallbacks", 10},
            {"limit_reclaims", "reclaims", 9},
            {"demotions", "demotions", 10},
            {"slot_releases", "releases", 9},
            {"leaked_charges", "leaked", 8}};
        Table table(columns);
        for (std::size_t i = 0; i < records.size(); ++i)
            table.row(kChurnUnits[i], metricCells(columns, records[i].metrics));
        out.text += table.text();
    };
    return sc;
}

}  // namespace

/**
 * One noisy-neighbor unit. The whole host has 2 MiB DRAM / 8 MiB PM
 * per shard golden: the victim (~0.7 MiB) fits in DRAM with room to
 * spare, the thrasher (~3.2 MiB) cannot.
 */
RunRecord
runWorkload(const RunContext &ctx, const HostSpec &host,
            const TenantMixUnit &unit)
{
    constexpr std::size_t kValueBytes = 1024;
    return runSharded(ctx, host, unit.victimSeeds.size(), 0,
                      [&](sim::ShardedSimulator &sharded, RunRecord &rec) {
        std::vector<TenantShard> tenants(sharded.shards());
        for (unsigned s = 0; s < sharded.shards(); ++s)
            tenants[s] = makeTenantShard(sharded.shard(s), unit, s);

        sharded.run([&](sim::Simulator &, unsigned s, std::uint64_t epoch) {
            TenantShard &t = tenants[s];
            if (epoch == 0) {
                // Load phase: victim first (born in DRAM), then the
                // thrasher spills past the DRAM watermark exactly as a
                // late-arriving bulk tenant would.
                for (std::uint64_t k = 0; k < unit.victimRecords; ++k)
                    t.victim->put(k, kValueBytes);
                if (t.thrasher) {
                    for (std::uint64_t k = 0; k < unit.thrasherRecords; ++k)
                        t.thrasher->put(k, kValueBytes);
                }
                return true;
            }
            // Request epochs. The victim runs a stable zipfian YCSB-A
            // mix; the thrasher's popularity churns every epoch (rotating
            // key offset), so it keeps manufacturing new promotion
            // candidates — the noisy-neighbor pressure under test.
            for (std::uint64_t i = 0; i < unit.victimOps; ++i) {
                const std::uint64_t key = t.victimZipf->next(t.victimRng);
                if (t.victimRng.nextRange(100) < 50)
                    t.victim->get(key);
                else
                    t.victim->put(key, kValueBytes);
            }
            if (t.thrasher) {
                const std::uint64_t churn = (epoch - 1) * 797;
                for (std::uint64_t i = 0; i < unit.thrasherOps; ++i) {
                    const std::uint64_t key =
                        (t.thrasherZipf->next(t.thrasherRng) + churn) %
                        unit.thrasherRecords;
                    if (t.thrasherRng.nextRange(100) < 50)
                        t.thrasher->get(key);
                    else
                        t.thrasher->put(key, kValueBytes);
                }
            }
            return epoch < unit.epochs;
        });

        // Exact cross-shard percentiles: merge the per-shard histograms
        // (one MemCgroupManager per shard) before taking p99.
        LatencyHist victimHist, thrasherHist;
        std::uint64_t victimAccesses = 0, thrasherAccesses = 0;
        double victimLatSum = 0.0;
        for (unsigned s = 0; s < sharded.shards(); ++s) {
            sim::Simulator &sim = sharded.shard(s);
            const TenantShard &t = tenants[s];
            if (const MemCgroup *cg = sim.memcg().find(t.victimId)) {
                mergeHist(victimHist, *cg);
                victimAccesses += cg->accesses();
                victimLatSum +=
                    cg->meanLatency() * static_cast<double>(cg->accesses());
            }
            if (const MemCgroup *cg = sim.memcg().find(t.thrasherId)) {
                mergeHist(thrasherHist, *cg);
                thrasherAccesses += cg->accesses();
            }
        }

        const stats::VmStat vmstat = sharded.mergedVmstat();
        const double victimP99 = static_cast<double>(latencyP99(victimHist));
        rec.metrics["victim_p99_ns"] = victimP99;
        rec.metrics["victim_mean_ns"] =
            victimAccesses == 0
                ? 0.0
                : victimLatSum / static_cast<double>(victimAccesses);
        rec.metrics["victim_accesses"] =
            static_cast<double>(victimAccesses);
        rec.metrics["thrasher_p99_ns"] =
            static_cast<double>(latencyP99(thrasherHist));
        rec.metrics["thrasher_accesses"] =
            static_cast<double>(thrasherAccesses);
        addMigrationMetrics(vmstat, rec);
        rec.metrics["tenant_demotions"] =
            static_cast<double>(vmstat.global(VmItem::PgtenantDemote));
        rec.metrics["promote_deferred"] = static_cast<double>(
            vmstat.global(VmItem::PgtenantPromoteDeferred));
        rec.metrics["alloc_fallbacks"] = static_cast<double>(
            vmstat.global(VmItem::PgtenantAllocFallback));
        rec.metrics["limit_reclaims"] =
            static_cast<double>(vmstat.global(VmItem::MemcgLimitReclaim));

        rec.tenantMetrics["victim.p99_latency_ns"] = victimP99;
        rec.tenantMetrics["victim.mean_latency_ns"] =
            rec.metrics["victim_mean_ns"];
        rec.tenantMetrics["victim.accesses"] =
            static_cast<double>(victimAccesses);
        if (thrasherAccesses > 0) {
            rec.tenantMetrics["thrasher.p99_latency_ns"] =
                rec.metrics["thrasher_p99_ns"];
            rec.tenantMetrics["thrasher.accesses"] =
                static_cast<double>(thrasherAccesses);
        }
        return tenants;
    });
}

/**
 * One churn unit. The whole host has 1 MiB DRAM / 2 MiB PM per shard
 * and ample swap: three concurrent 1.5 MiB tenants over-commit the
 * 3 MiB of memory, forcing demotion cascades into swap; departures
 * then tear regions down with slots still held.
 */
RunRecord
runWorkload(const RunContext &ctx, const HostSpec &host,
            const ChurnUnit &unit)
{
    const std::uint64_t lastEpoch = kChurnWaves - 1 + kTenantLife;
    return runSharded(ctx, host, unit.seeds.size(), 0,
                      [&](sim::ShardedSimulator &sharded, RunRecord &rec) {
        std::vector<std::vector<ChurnTenant>> waves(sharded.shards());
        std::vector<Rng> rngs(unit.seeds.begin(), unit.seeds.end());

        sharded.run([&](sim::Simulator &sim, unsigned s,
                        std::uint64_t epoch) {
            auto &tenants = waves[s];
            Rng &rng = rngs[s];

            // Departure first: wave w leaves at the start of epoch
            // w + kTenantLife, pages and swap slots and all — charges
            // must drop with the region.
            for (auto &t : tenants) {
                if (!t.departed && epoch >= t.arrival + kTenantLife) {
                    sim.unmapRegion(t.region);
                    t.departed = true;
                }
            }

            // Arrival: one capped tenant per wave epoch. Even waves get
            // a partial DRAM cap (relieved by per-cgroup reclaim); odd
            // waves are DRAM-excluded batch tenants (cap 0), so every
            // fault must take the allocation-fallback path into PM.
            if (epoch < kChurnWaves) {
                ChurnTenant t;
                t.arrival = epoch;
                MemCgroupLimits limits;
                limits.maxPages = {epoch % 2 == 0 ? 128u : 0u};
                limits.lowPages = {64};
                limits.promoteQuantum = 16;
                t.id = sim.memcg().create(
                    "wave" + std::to_string(epoch), limits);
                t.region = sim.mmap(unit.pages * kPageSize, /*anon=*/true,
                                    "tenant-heap", t.id);
                tenants.push_back(t);
            }

            // Each live tenant sweeps its heap: a strided write pass per
            // sweep plus a sprinkle of random reads, enough to keep its
            // resident set referenced and the fault path busy.
            for (const auto &t : tenants) {
                if (t.departed)
                    continue;
                for (std::uint64_t pass = 0; pass < unit.sweeps; ++pass) {
                    for (std::uint64_t p = 0; p < unit.pages; ++p)
                        sim.write(t.region + p * kPageSize, 8);
                    for (std::uint64_t i = 0; i < unit.pages / 4; ++i) {
                        sim.read(t.region +
                                     rng.nextRange(unit.pages) * kPageSize,
                                 8);
                    }
                }
            }
            return epoch < lastEpoch;
        });

        // Every tenant departed; a nonzero residue is a charge leak (the
        // invariant walk would flag it too, but the golden pins it).
        double leaked = 0.0;
        std::uint64_t slotReleases = 0;
        for (unsigned s = 0; s < sharded.shards(); ++s) {
            sharded.shard(s).memcg().forEach([&](const MemCgroup &cg) {
                leaked += static_cast<double>(cg.chargedTotal());
            });
            slotReleases += sharded.shard(s).swap().slotReleases();
        }
        const stats::VmStat vmstat = sharded.mergedVmstat();
        rec.metrics["leaked_charges"] = leaked;
        rec.metrics["slot_releases"] = static_cast<double>(slotReleases);
        addMigrationMetrics(vmstat, rec);
        rec.metrics["swap_outs"] =
            static_cast<double>(vmstat.global(VmItem::Pswpout));
        rec.metrics["alloc_fallbacks"] = static_cast<double>(
            vmstat.global(VmItem::PgtenantAllocFallback));
        rec.metrics["limit_reclaims"] =
            static_cast<double>(vmstat.global(VmItem::MemcgLimitReclaim));
        rec.metrics["promote_deferred"] = static_cast<double>(
            vmstat.global(VmItem::PgtenantPromoteDeferred));
        rec.metrics["epochs"] = static_cast<double>(sharded.epochs());
        return waves;
    });
}

std::vector<Scenario>
makeTenantScenarios()
{
    return {noisyNeighborScenario(), churnScenario()};
}

}  // namespace harness
}  // namespace mclock
