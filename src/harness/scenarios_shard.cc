/**
 * @file
 * Sharded-machine scenarios: a big-memory KV host partitioned into
 * S = 8 shards (sim::ShardedSimulator), each shard a self-contained
 * sub-simulator over 1/8 of the node capacities running its own
 * KV store under a scrambled-zipfian YCSB-A mix.
 *
 * The shard count is scenario data — it defines the address-space
 * partition and is the same for every run. The harness `--shards N`
 * flag only chooses how many worker threads drive the 8 shards each
 * epoch, and by the determinism contract (see sim/sharded.hh) every
 * metric below is bit-identical for any N: these scenarios are
 * golden-eligible, and shard_test pins 1-vs-4-vs-8 worker equality.
 *
 * Three members:
 *  - shard_bigmem:        ungoverned promotion, workers = --shards;
 *  - shard_bigmem_budget: global per-epoch promotion budget exercised
 *                         across the epoch-merge grant loop;
 *  - shard_bigmem_x4/_x8: wall-clock variants with the worker count
 *                         pinned (bench families; not golden — their
 *                         results equal shard_bigmem by construction,
 *                         which shard_test asserts).
 */

#include <memory>
#include <string>

#include "base/csv.hh"
#include "base/rng.hh"
#include "harness/scenario_common.hh"
#include "sim/sharded.hh"
#include "workloads/kvstore.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace harness {

namespace {

using stats::VmItem;

/** Fixed semantic partition count (see file comment). */
constexpr unsigned kShardCount = 8;

/** Policies compared (one unit each). */
const std::vector<std::string> kShardPolicies = {"multiclock", "static"};

/**
 * Whole-host machine: 8x the golden YCSB shard shape. Every shard gets
 * a goldenYcsbMachine()-sized slice (4 MiB DRAM + 24 MiB PM full
 * scale), so per-shard tiering dynamics match the proven YCSB golden
 * profile. Golden runs scale the host down 4x.
 */
sim::MachineConfig
shardMachineWhole(const RunContext &ctx)
{
    sim::MachineConfig cfg;
    if (ctx.golden) {
        cfg.nodes = {{TierKind::Dram, 8_MiB}, {TierKind::Pmem, 48_MiB}};
    } else {
        cfg.nodes = {{TierKind::Dram, 32_MiB},
                     {TierKind::Pmem, 192_MiB}};
    }
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = ctx.golden ? 20_ms : kMetricsWindow;
    cfg.seed = ctx.seed;
    applyStatsContext(cfg, ctx);
    return cfg;
}

/** Per-shard KV records: footprint ~2.5x the shard's DRAM slice. */
std::uint64_t
shardRecords(const RunContext &ctx)
{
    return ctx.param("records", ctx.golden ? 2400 : 9600);
}

/** Request epochs after the load epoch. */
std::uint64_t
shardEpochs(const RunContext &ctx)
{
    return ctx.param("epochs", ctx.golden ? 4 : 8);
}

/** YCSB-A operations per shard per request epoch. */
std::uint64_t
shardOpsPerEpoch(const RunContext &ctx)
{
    return ctx.param("ops", ctx.golden ? 5000 : 60000);
}

/**
 * Shard-local workload state. Owned by the coordinator, but each
 * instance is touched only by whichever worker thread drives its shard
 * in a given epoch (the shard's claim is the handoff point).
 */
struct ShardWorkload
{
    ShardWorkload(sim::Simulator &sim, std::uint64_t records,
                  std::uint64_t seed)
        : rng(seed), zipf(records), records(records),
          store(std::make_unique<workloads::KvStore>(sim))
    {
    }

    Rng rng;
    workloads::ScrambledZipfianGenerator zipf;
    std::uint64_t records;
    std::unique_ptr<workloads::KvStore> store;
};

/**
 * Run one policy unit: build the sharded host, drive epoch 0 as the
 * per-shard load phase and the remaining epochs as YCSB-A request
 * batches, then reduce shard-local state into the record.
 */
RunRecord
runShardUnit(const std::string &policy, const RunContext &ctx,
             unsigned workers)
{
    const std::uint64_t records = shardRecords(ctx);
    const std::uint64_t epochs = shardEpochs(ctx);
    const std::uint64_t opsPerEpoch = shardOpsPerEpoch(ctx);
    constexpr std::size_t kValueBytes = 1024;

    sim::ShardOptions opts;
    opts.shards = kShardCount;
    opts.workers = workers;
    opts.epochPromoteBudget = ctx.param("promote_budget", 0);

    sim::ShardedSimulator host(shardMachineWhole(ctx), opts);
    std::vector<std::unique_ptr<ShardWorkload>> shards;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(
            policies::makePolicy(policy, benchPolicyOptions()));
        shards.push_back(std::make_unique<ShardWorkload>(
            host.shard(s), records,
            ctx.derivedSeed(16 + s, 0xbead5eed00ull + s)));
    }

    host.run([&](sim::Simulator &, unsigned s, std::uint64_t epoch) {
        ShardWorkload &w = *shards[s];
        if (epoch == 0) {
            // Load phase: fill the store in key order, spilling cold
            // records into PM exactly as the YCSB scenarios do.
            for (std::uint64_t k = 0; k < w.records; ++k)
                w.store->put(k, kValueBytes);
            return true;
        }
        // YCSB-A: 50/50 read-update over the scrambled-zipfian keys.
        for (std::uint64_t i = 0; i < opsPerEpoch; ++i) {
            const std::uint64_t key = w.zipf.next(w.rng);
            if (w.rng.nextRange(100) < 50)
                w.store->get(key);
            else
                w.store->put(key, kValueBytes);
        }
        return epoch < epochs;  // epoch `epochs` is the last one
    });

    RunRecord rec;
    const sim::Metrics merged = host.mergedMetrics();
    const stats::VmStat &vmstat = merged.stats();
    const double accesses =
        static_cast<double>(merged.totalAccesses());

    rec.metrics["accesses"] = accesses;
    rec.metrics["tier0_share"] =
        accesses == 0.0
            ? 0.0
            : static_cast<double>(merged.totalTierAccesses(0)) /
                  accesses;
    rec.metrics["promotions"] =
        static_cast<double>(vmstat.global(VmItem::PgpromoteSuccess));
    rec.metrics["demotions"] =
        static_cast<double>(vmstat.global(VmItem::Pgdemote));
    rec.metrics["epochs"] = static_cast<double>(host.epochs());
    rec.metrics["merged_events"] =
        static_cast<double>(host.events().size());
    rec.metrics["deferred"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgpromoteDeferred));
    rec.metrics["makespan_ms"] =
        static_cast<double>(host.makespan()) / 1e6;

    // Shard balance: the extremes of per-shard served accesses.
    std::uint64_t minAcc = ~0ull, maxAcc = 0;
    for (unsigned s = 0; s < host.shards(); ++s) {
        const std::uint64_t a =
            host.shard(s).metrics().totalAccesses();
        minAcc = std::min(minAcc, a);
        maxAcc = std::max(maxAcc, a);
    }
    rec.metrics["min_shard_accesses"] = static_cast<double>(minAcc);
    rec.metrics["max_shard_accesses"] = static_cast<double>(maxAcc);

    checkShardedRunInvariants(host, merged, ctx, rec);
    return rec;
}

/** Expand/reduce shared by the whole family. */
Scenario
shardScenario(const std::string &name, const std::string &title,
              std::uint64_t promoteBudget, int pinnedWorkers,
              bool goldenEligible)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = "kvstore";
    sc.policies = kShardPolicies;
    sc.goldenEligible = goldenEligible;
    sc.expand = [promoteBudget, pinnedWorkers](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : kShardPolicies) {
            units.push_back({policy, [policy, promoteBudget,
                                      pinnedWorkers,
                                      ctx](const RunContext &) {
                RunContext unitCtx = ctx;
                if (promoteBudget != 0 &&
                    !unitCtx.params.count("promote_budget"))
                    unitCtx.params["promote_budget"] = promoteBudget;
                const unsigned workers =
                    pinnedWorkers > 0
                        ? static_cast<unsigned>(pinnedWorkers)
                        : ctx.shards;
                return runShardUnit(policy, unitCtx, workers);
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        appendf(out.text, "%u shards; worker threads change wall-clock "
                          "only, never these numbers.\n",
                kShardCount);
        appendf(out.text,
                "%-12s %12s %7s %11s %10s %9s %9s %12s\n", "policy",
                "accesses", "tier0%", "promotions", "demotions",
                "merged", "deferred", "makespan_ms");

        CsvWriter csv;
        csv.writeHeader({"policy", "accesses", "tier0_share",
                         "promotions", "demotions", "merged_events",
                         "deferred", "makespan_ms",
                         "min_shard_accesses", "max_shard_accesses"});
        for (std::size_t i = 0;
             i < records.size() && i < kShardPolicies.size(); ++i) {
            const auto &m = records[i].metrics;
            const auto &policy = kShardPolicies[i];
            appendf(out.text,
                    "%-12s %12.0f %6.1f%% %11.0f %10.0f %9.0f %9.0f "
                    "%12.2f\n",
                    policy.c_str(), m.at("accesses"),
                    m.at("tier0_share") * 100.0, m.at("promotions"),
                    m.at("demotions"), m.at("merged_events"),
                    m.at("deferred"), m.at("makespan_ms"));
            csv.writeRow({policy, std::to_string(m.at("accesses")),
                          std::to_string(m.at("tier0_share")),
                          std::to_string(m.at("promotions")),
                          std::to_string(m.at("demotions")),
                          std::to_string(m.at("merged_events")),
                          std::to_string(m.at("deferred")),
                          std::to_string(m.at("makespan_ms")),
                          std::to_string(m.at("min_shard_accesses")),
                          std::to_string(m.at("max_shard_accesses"))});
        }
        appendf(out.text, "wrote %s.csv\n", sc.name.c_str());
        out.artifacts.push_back({sc.name + ".csv", csv.str()});
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeShardScenarios()
{
    return {
        shardScenario("shard_bigmem",
                      "Sharded big-memory KV host (8 shards, YCSB-A)",
                      /*promoteBudget=*/0, /*pinnedWorkers=*/0,
                      /*goldenEligible=*/true),
        shardScenario(
            "shard_bigmem_budget",
            "Sharded KV host under a global promotion budget",
            /*promoteBudget=*/64, /*pinnedWorkers=*/0,
            /*goldenEligible=*/true),
        shardScenario(
            "shard_bigmem_x4",
            "Sharded KV host, 4 worker threads (wall-clock family)",
            /*promoteBudget=*/0, /*pinnedWorkers=*/4,
            /*goldenEligible=*/false),
        shardScenario(
            "shard_bigmem_x8",
            "Sharded KV host, 8 worker threads (wall-clock family)",
            /*promoteBudget=*/0, /*pinnedWorkers=*/8,
            /*goldenEligible=*/false),
    };
}

}  // namespace harness
}  // namespace mclock
