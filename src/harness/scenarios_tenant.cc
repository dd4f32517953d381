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

#include <map>
#include <memory>
#include <string>

#include "base/csv.hh"
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

/** Exact latency histogram merged over shards. */
using LatencyHist = std::map<SimTime, std::uint64_t>;

/** p99 of a merged histogram, same rule as MemCgroup::p99Latency. */
SimTime
histP99(const LatencyHist &hist)
{
    std::uint64_t total = 0;
    for (const auto &[lat, count] : hist)
        total += count;
    if (total == 0)
        return 0;
    const std::uint64_t need = (total * 99 + 99) / 100;
    std::uint64_t cum = 0;
    for (const auto &[lat, count] : hist) {
        cum += count;
        if (cum >= need)
            return lat;
    }
    return hist.rbegin()->first;
}

/** Merge one tenant's shard-local histogram into @p into. */
void
mergeHist(LatencyHist &into, const MemCgroup &cg)
{
    for (const auto &[lat, count] : cg.latencyHist())
        into[lat] += count;
}

// --- tenant_noisy_neighbor -------------------------------------------------

/** Which tenants a noisy-neighbor unit hosts and how they are limited. */
enum class TenantMix
{
    Baseline,  ///< victim alone, unconstrained
    Isolated,  ///< victim + thrasher, caps/quota/low protection on
    Shared,    ///< victim + thrasher, accounting only
};

const std::vector<std::string> kNoisyUnits = {"baseline", "isolated",
                                              "shared"};

/**
 * Whole-host machine. Per shard: 2 MiB DRAM / 8 MiB PM golden — the
 * victim (~0.7 MiB) fits in DRAM with room to spare, the thrasher
 * (~3.2 MiB) cannot.
 */
sim::MachineConfig
tenantMachineWhole(const RunContext &ctx)
{
    sim::MachineConfig cfg;
    if (ctx.golden) {
        cfg.nodes = {{TierKind::Dram, 8_MiB}, {TierKind::Pmem, 32_MiB}};
    } else {
        cfg.nodes = {{TierKind::Dram, 16_MiB},
                     {TierKind::Pmem, 64_MiB}};
    }
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = ctx.golden ? 20_ms : kMetricsWindow;
    applyStatsContext(cfg, ctx);
    return cfg;
}

std::uint64_t
victimRecords(const RunContext &ctx)
{
    return ctx.param("victim_records", ctx.golden ? 600 : 1200);
}

std::uint64_t
thrasherRecords(const RunContext &ctx)
{
    return ctx.param("thrasher_records", ctx.golden ? 3000 : 6000);
}

std::uint64_t
tenantEpochs(const RunContext &ctx)
{
    return ctx.param("epochs", ctx.golden ? 4 : 8);
}

std::uint64_t
victimOpsPerEpoch(const RunContext &ctx)
{
    return ctx.param("victim_ops", ctx.golden ? 6000 : 24000);
}

std::uint64_t
thrasherOpsPerEpoch(const RunContext &ctx)
{
    return ctx.param("thrasher_ops", ctx.golden ? 9000 : 36000);
}

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

/** Build one shard's tenant mix (coordinator thread, before run()). */
TenantShard
makeTenantShard(sim::Simulator &sim, TenantMix mix, const RunContext &ctx,
                unsigned s)
{
    TenantShard t;

    // Victim limits: memory.low covers the whole working set in the
    // isolated mix, so global reclaim never touches its pages while
    // the thrasher has anything unprotected resident.
    MemCgroupLimits victimLimits;
    if (mix == TenantMix::Isolated)
        victimLimits.lowPages = {320};
    t.victimId = sim.memcg().create("victim", victimLimits);

    workloads::KvStoreConfig kv;
    kv.hashBuckets = 1u << 12;
    kv.memcg = t.victimId;
    t.victim = std::make_unique<workloads::KvStore>(sim, kv);
    t.victimRng = Rng(ctx.derivedSeed(32 + s, 0xfeed5eed00ull + s));
    t.victimZipf = std::make_unique<workloads::ScrambledZipfianGenerator>(
        victimRecords(ctx));

    if (mix == TenantMix::Baseline)
        return t;

    // Thrasher limits: in the isolated mix a hard DRAM cap plus a
    // small per-epoch promotion quota; in the shared mix nothing — the
    // cgroup exists purely so its latencies/charges are observable.
    MemCgroupLimits thrasherLimits;
    if (mix == TenantMix::Isolated) {
        thrasherLimits.maxPages = {96};
        thrasherLimits.promoteQuantum = 8;
    }
    t.thrasherId = sim.memcg().create("thrasher", thrasherLimits);

    kv.memcg = t.thrasherId;
    t.thrasher = std::make_unique<workloads::KvStore>(sim, kv);
    t.thrasherRng = Rng(ctx.derivedSeed(48 + s, 0xfade5eed00ull + s));
    t.thrasherZipf =
        std::make_unique<workloads::ScrambledZipfianGenerator>(
            thrasherRecords(ctx));
    return t;
}

RunRecord
runNoisyUnit(TenantMix mix, const RunContext &ctx)
{
    constexpr std::size_t kValueBytes = 1024;
    const std::uint64_t vRecords = victimRecords(ctx);
    const std::uint64_t tRecords = thrasherRecords(ctx);
    const std::uint64_t epochs = tenantEpochs(ctx);
    const std::uint64_t vOps = victimOpsPerEpoch(ctx);
    const std::uint64_t tOps = thrasherOpsPerEpoch(ctx);

    sim::ShardOptions opts;
    opts.shards = kTenantShards;
    opts.workers = ctx.shards;

    sim::ShardedSimulator host(tenantMachineWhole(ctx), opts);
    std::vector<TenantShard> tenants;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(
            policies::makePolicy("multiclock", benchPolicyOptions()));
        tenants.push_back(
            makeTenantShard(host.shard(s), mix, ctx, s));
    }

    host.run([&](sim::Simulator &, unsigned s, std::uint64_t epoch) {
        TenantShard &t = tenants[s];
        if (epoch == 0) {
            // Load phase: victim first (born in DRAM), then the
            // thrasher spills past the DRAM watermark exactly as a
            // late-arriving bulk tenant would.
            for (std::uint64_t k = 0; k < vRecords; ++k)
                t.victim->put(k, kValueBytes);
            if (t.thrasher) {
                for (std::uint64_t k = 0; k < tRecords; ++k)
                    t.thrasher->put(k, kValueBytes);
            }
            return true;
        }
        // Request epochs. The victim runs a stable zipfian YCSB-A
        // mix; the thrasher's popularity churns every epoch (rotating
        // key offset), so it keeps manufacturing new promotion
        // candidates — the noisy-neighbor pressure under test.
        for (std::uint64_t i = 0; i < vOps; ++i) {
            const std::uint64_t key = t.victimZipf->next(t.victimRng);
            if (t.victimRng.nextRange(100) < 50)
                t.victim->get(key);
            else
                t.victim->put(key, kValueBytes);
        }
        if (t.thrasher) {
            const std::uint64_t churn = (epoch - 1) * 797;
            for (std::uint64_t i = 0; i < tOps; ++i) {
                const std::uint64_t key =
                    (t.thrasherZipf->next(t.thrasherRng) + churn) %
                    tRecords;
                if (t.thrasherRng.nextRange(100) < 50)
                    t.thrasher->get(key);
                else
                    t.thrasher->put(key, kValueBytes);
            }
        }
        return epoch < epochs;
    });

    RunRecord rec;
    const sim::Metrics merged = host.mergedMetrics();
    const stats::VmStat &vmstat = merged.stats();

    // Exact cross-shard percentiles: merge the per-shard histograms
    // (one MemCgroupManager per shard) before taking p99.
    LatencyHist victimHist, thrasherHist;
    std::uint64_t victimAccesses = 0, thrasherAccesses = 0;
    double victimLatSum = 0.0;
    for (unsigned s = 0; s < host.shards(); ++s) {
        sim::Simulator &sim = host.shard(s);
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

    const double victimP99 = static_cast<double>(histP99(victimHist));
    rec.metrics["victim_p99_ns"] = victimP99;
    rec.metrics["victim_mean_ns"] =
        victimAccesses == 0
            ? 0.0
            : victimLatSum / static_cast<double>(victimAccesses);
    rec.metrics["victim_accesses"] =
        static_cast<double>(victimAccesses);
    rec.metrics["thrasher_p99_ns"] =
        static_cast<double>(histP99(thrasherHist));
    rec.metrics["thrasher_accesses"] =
        static_cast<double>(thrasherAccesses);
    rec.metrics["promotions"] =
        static_cast<double>(vmstat.global(VmItem::PgpromoteSuccess));
    rec.metrics["demotions"] =
        static_cast<double>(vmstat.global(VmItem::Pgdemote));
    rec.metrics["tenant_demotions"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgtenantDemote));
    rec.metrics["promote_deferred"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgtenantPromoteDeferred));
    rec.metrics["alloc_fallbacks"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgtenantAllocFallback));
    rec.metrics["limit_reclaims"] = static_cast<double>(
        vmstat.global(stats::VmItem::MemcgLimitReclaim));

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

    checkShardedRunInvariants(host, merged, ctx, rec);
    return rec;
}

Scenario
noisyNeighborScenario()
{
    Scenario sc;
    sc.name = "tenant_noisy_neighbor";
    sc.title = "Tenant isolation vs. a churning noisy neighbor";
    sc.workload = "kvstore";
    sc.policies = {"multiclock"};
    sc.goldenEligible = true;
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        const TenantMix mixes[] = {TenantMix::Baseline,
                                   TenantMix::Isolated,
                                   TenantMix::Shared};
        for (std::size_t i = 0; i < kNoisyUnits.size(); ++i) {
            const TenantMix mix = mixes[i];
            units.push_back({kNoisyUnits[i],
                             [mix, ctx](const RunContext &) {
                return runNoisyUnit(mix, ctx);
            }});
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
        appendf(out.text, "%-10s %14s %14s %11s %10s %9s %9s\n", "mix",
                "victim_p99_ns", "victim_mean", "promotions",
                "demotions", "deferred", "reclaims");

        CsvWriter csv;
        csv.writeHeader({"mix", "victim_p99_ns", "victim_mean_ns",
                         "victim_accesses", "thrasher_p99_ns",
                         "promotions", "demotions", "tenant_demotions",
                         "promote_deferred", "alloc_fallbacks",
                         "limit_reclaims"});
        for (std::size_t i = 0;
             i < records.size() && i < kNoisyUnits.size(); ++i) {
            const auto &m = records[i].metrics;
            appendf(out.text,
                    "%-10s %14.0f %14.1f %11.0f %10.0f %9.0f %9.0f\n",
                    kNoisyUnits[i].c_str(), m.at("victim_p99_ns"),
                    m.at("victim_mean_ns"), m.at("promotions"),
                    m.at("demotions"), m.at("promote_deferred"),
                    m.at("limit_reclaims"));
            csv.writeRow({kNoisyUnits[i],
                          std::to_string(m.at("victim_p99_ns")),
                          std::to_string(m.at("victim_mean_ns")),
                          std::to_string(m.at("victim_accesses")),
                          std::to_string(m.at("thrasher_p99_ns")),
                          std::to_string(m.at("promotions")),
                          std::to_string(m.at("demotions")),
                          std::to_string(m.at("tenant_demotions")),
                          std::to_string(m.at("promote_deferred")),
                          std::to_string(m.at("alloc_fallbacks")),
                          std::to_string(m.at("limit_reclaims"))});
        }

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
        out.artifacts.push_back({sc.name + ".csv", csv.str()});
    };
    return sc;
}

// --- tenant_churn ----------------------------------------------------------

const std::vector<std::string> kChurnUnits = {"multiclock", "static"};

/** Arrival waves: tenant w arrives at epoch w, lives kTenantLife. */
constexpr std::uint64_t kChurnWaves = 4;
constexpr std::uint64_t kTenantLife = 3;

/**
 * Whole-host machine for the churn waves: per shard 1 MiB DRAM / 2 MiB
 * PM and ample swap. Three concurrent 1.5 MiB tenants over-commit the
 * 3 MiB of memory, forcing demotion cascades into swap; departures
 * then tear regions down with slots still held.
 */
sim::MachineConfig
churnMachineWhole(const RunContext &ctx)
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 4_MiB}, {TierKind::Pmem, 8_MiB}};
    cfg.swapPages = 16384;
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = ctx.golden ? 20_ms : kMetricsWindow;
    applyStatsContext(cfg, ctx);
    return cfg;
}

std::uint64_t
churnTenantPages(const RunContext &ctx)
{
    return ctx.param("tenant_pages", 384);
}

std::uint64_t
churnSweeps(const RunContext &ctx)
{
    return ctx.param("sweeps", ctx.golden ? 2 : 4);
}

/** One live tenant's shard-local state. */
struct ChurnTenant
{
    MemCgroupId id = kRootMemcg;
    Vaddr region = 0;
    std::uint64_t arrival = 0;
    bool departed = false;
};

RunRecord
runChurnUnit(const std::string &policy, const RunContext &ctx)
{
    const std::uint64_t pages = churnTenantPages(ctx);
    const std::uint64_t sweeps = churnSweeps(ctx);
    const std::uint64_t lastEpoch = kChurnWaves - 1 + kTenantLife;

    sim::ShardOptions opts;
    opts.shards = kTenantShards;
    opts.workers = ctx.shards;

    sim::ShardedSimulator host(churnMachineWhole(ctx), opts);
    std::vector<std::vector<ChurnTenant>> waves(host.shards());
    std::vector<Rng> rngs;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(
            policies::makePolicy(policy, benchPolicyOptions()));
        rngs.emplace_back(ctx.derivedSeed(64 + s, 0xc0ffee5eed00ull + s));
    }

    host.run([&](sim::Simulator &sim, unsigned s, std::uint64_t epoch) {
        auto &tenants = waves[s];
        Rng &rng = rngs[s];

        // Departure first: wave w leaves at the start of epoch
        // w + kTenantLife, pages and swap slots and all — charges must
        // drop with the region.
        for (auto &t : tenants) {
            if (!t.departed && epoch >= t.arrival + kTenantLife) {
                sim.unmapRegion(t.region);
                t.departed = true;
            }
        }

        // Arrival: one capped tenant per wave epoch. Even waves get a
        // partial DRAM cap (relieved by per-cgroup reclaim); odd waves
        // are DRAM-excluded batch tenants (cap 0), so every fault must
        // take the allocation-fallback path into PM.
        if (epoch < kChurnWaves) {
            ChurnTenant t;
            t.arrival = epoch;
            MemCgroupLimits limits;
            limits.maxPages = {epoch % 2 == 0 ? 128u : 0u};
            limits.lowPages = {64};
            limits.promoteQuantum = 16;
            t.id = sim.memcg().create(
                "wave" + std::to_string(epoch), limits);
            t.region = sim.mmap(pages * kPageSize, /*anon=*/true,
                                "tenant-heap", t.id);
            tenants.push_back(t);
        }

        // Each live tenant sweeps its heap: a strided write pass per
        // sweep plus a sprinkle of random reads, enough to keep its
        // resident set referenced and the fault path busy.
        for (const auto &t : tenants) {
            if (t.departed)
                continue;
            for (std::uint64_t pass = 0; pass < sweeps; ++pass) {
                for (std::uint64_t p = 0; p < pages; ++p)
                    sim.write(t.region + p * kPageSize, 8);
                for (std::uint64_t i = 0; i < pages / 4; ++i) {
                    sim.read(t.region +
                                 rng.nextRange(pages) * kPageSize,
                             8);
                }
            }
        }
        return epoch < lastEpoch;
    });

    RunRecord rec;
    const sim::Metrics merged = host.mergedMetrics();
    const stats::VmStat &vmstat = merged.stats();

    // Every tenant departed; a nonzero residue is a charge leak (the
    // invariant walk below would flag it too, but the golden pins it).
    double leaked = 0.0;
    std::uint64_t slotReleases = 0;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).memcg().forEach([&](const MemCgroup &cg) {
            leaked += static_cast<double>(cg.chargedTotal());
        });
        slotReleases += host.shard(s).swap().slotReleases();
    }
    rec.metrics["leaked_charges"] = leaked;
    rec.metrics["slot_releases"] = static_cast<double>(slotReleases);
    rec.metrics["promotions"] =
        static_cast<double>(vmstat.global(VmItem::PgpromoteSuccess));
    rec.metrics["demotions"] =
        static_cast<double>(vmstat.global(VmItem::Pgdemote));
    rec.metrics["swap_outs"] = static_cast<double>(
        vmstat.global(stats::VmItem::Pswpout));
    rec.metrics["alloc_fallbacks"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgtenantAllocFallback));
    rec.metrics["limit_reclaims"] = static_cast<double>(
        vmstat.global(stats::VmItem::MemcgLimitReclaim));
    rec.metrics["promote_deferred"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgtenantPromoteDeferred));
    rec.metrics["epochs"] = static_cast<double>(host.epochs());

    checkShardedRunInvariants(host, merged, ctx, rec);
    return rec;
}

Scenario
churnScenario()
{
    Scenario sc;
    sc.name = "tenant_churn";
    sc.title = "Tenant arrival/departure waves under caps and swap";
    sc.workload = "synthetic";
    sc.policies = kChurnUnits;
    sc.goldenEligible = true;
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : kChurnUnits) {
            units.push_back({policy, [policy, ctx](const RunContext &) {
                return runChurnUnit(policy, ctx);
            }});
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
        appendf(out.text, "%-12s %9s %10s %9s %10s %9s %8s\n", "policy",
                "swap_outs", "fallbacks", "reclaims", "demotions",
                "releases", "leaked");
        for (std::size_t i = 0;
             i < records.size() && i < kChurnUnits.size(); ++i) {
            const auto &m = records[i].metrics;
            appendf(out.text,
                    "%-12s %9.0f %10.0f %9.0f %10.0f %9.0f %8.0f\n",
                    kChurnUnits[i].c_str(), m.at("swap_outs"),
                    m.at("alloc_fallbacks"), m.at("limit_reclaims"),
                    m.at("demotions"), m.at("slot_releases"),
                    m.at("leaked_charges"));
        }
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeTenantScenarios()
{
    return {noisyNeighborScenario(), churnScenario()};
}

}  // namespace harness
}  // namespace mclock
