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
 * Two members:
 *  - shard_bigmem:        ungoverned promotion;
 *  - shard_bigmem_budget: global per-epoch promotion budget exercised
 *                         across the epoch-merge grant loop.
 */

#include <memory>
#include <string>

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

/** Expand/reduce shared by the whole family. */
Scenario
shardScenario(const std::string &name, const std::string &title,
              std::uint64_t promoteBudget)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = "kvstore";
    sc.policies = kShardPolicies;
    sc.params = {{"records", 1, 100000},
                 kEpochsParam,
                 kOpsParam,
                 {"promote_budget"}};
    // The whole host is 8x the golden YCSB shard shape: every shard
    // gets a goldenYcsbMachine()-sized slice (4 MiB DRAM + 24 MiB PM
    // full scale), so per-shard tiering dynamics match the proven YCSB
    // golden profile. Golden runs scale the host down 4x. Each shard
    // loads a KV store ~2.5x its DRAM slice.
    sc.expand = [promoteBudget](const RunContext &ctx) {
        const ShardKvUnit kv{
            ctx.param("promote_budget", promoteBudget),
            ctx.param("records", ctx.golden ? 2400 : 9600),
            ctx.param("epochs", ctx.golden ? 4 : 8),
            ctx.param("ops", ctx.golden ? 5000 : 60000),
            shardSeeds(ctx, kShardCount, 16, 0xbead5eed00ull)};
        const auto machine = shardedMachine(ctx, ctx.golden ? 8_MiB : 32_MiB,
                                            ctx.golden ? 48_MiB : 192_MiB);
        std::vector<RunUnit> units;
        for (const auto &policy : kShardPolicies) {
            ShardKvUnit unit = kv;
            // static never promotes, so no budget changes what it
            // simulates: drop it so every budget shares one record.
            if (policy == "static")
                unit.promoteBudget = 0;
            units.push_back({policy, {{policy, machine}, unit}});
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
        const std::vector<Column> columns = {
            {"policy", "policy", 12},
            {"accesses", "accesses", 12},
            {"tier0_share", "tier0", 7, 3},
            {"promotions", "promotions", 11},
            {"demotions", "demotions", 10},
            {"merged_events", "merged", 9},
            {"deferred", "deferred", 9},
            {"makespan_ms", "makespan_ms", 12, 2},
            {"min_shard_accesses", ""},
            {"max_shard_accesses", ""}};
        Table table(columns);
        for (std::size_t i = 0; i < records.size(); ++i) {
            table.row(kShardPolicies[i],
                      metricCells(columns, records[i].metrics));
        }
        out.text += table.text();
        appendf(out.text, "wrote %s.csv\n", sc.name.c_str());
        out.artifacts.push_back({sc.name + ".csv", table.csv()});
    };
    return sc;
}

}  // namespace

/**
 * One policy unit on the sharded host: epoch 0 is the per-shard load
 * phase, the remaining epochs are YCSB-A request batches.
 */
RunRecord
runWorkload(const RunContext &ctx, const HostSpec &host,
            const ShardKvUnit &unit)
{
    constexpr std::size_t kValueBytes = 1024;
    return runSharded(ctx, host, unit.seeds.size(), unit.promoteBudget,
                      [&](sim::ShardedSimulator &sharded, RunRecord &rec) {
        std::vector<std::unique_ptr<ShardWorkload>> shards(sharded.shards());
        for (unsigned s = 0; s < sharded.shards(); ++s) {
            shards[s] = std::make_unique<ShardWorkload>(
                sharded.shard(s), unit.records, unit.seeds[s]);
        }

        sharded.run([&](sim::Simulator &, unsigned s, std::uint64_t epoch) {
            ShardWorkload &w = *shards[s];
            if (epoch == 0) {
                // Load phase: fill the store in key order, spilling cold
                // records into PM exactly as the YCSB scenarios do.
                for (std::uint64_t k = 0; k < w.records; ++k)
                    w.store->put(k, kValueBytes);
                return true;
            }
            // YCSB-A: 50/50 read-update over the scrambled-zipfian keys.
            for (std::uint64_t i = 0; i < unit.opsPerEpoch; ++i) {
                const std::uint64_t key = w.zipf.next(w.rng);
                if (w.rng.nextRange(100) < 50)
                    w.store->get(key);
                else
                    w.store->put(key, kValueBytes);
            }
            return epoch < unit.epochs;  // epoch `epochs` is the last one
        });

        const sim::Metrics merged = sharded.mergedMetrics();
        const double accesses =
            static_cast<double>(merged.totalAccesses());
        rec.metrics["accesses"] = accesses;
        rec.metrics["tier0_share"] =
            accesses == 0.0
                ? 0.0
                : static_cast<double>(merged.totalTierAccesses(0)) /
                      accesses;
        addMigrationMetrics(merged.stats(), rec);
        rec.metrics["epochs"] = static_cast<double>(sharded.epochs());
        rec.metrics["merged_events"] =
            static_cast<double>(sharded.events().size());
        rec.metrics["deferred"] = static_cast<double>(
            merged.stats().global(VmItem::PgpromoteDeferred));
        rec.metrics["makespan_ms"] =
            static_cast<double>(sharded.makespan()) / 1e6;

        // Shard balance: the extremes of per-shard served accesses.
        std::uint64_t minAcc = ~0ull, maxAcc = 0;
        for (unsigned s = 0; s < sharded.shards(); ++s) {
            const std::uint64_t a =
                sharded.shard(s).metrics().totalAccesses();
            minAcc = std::min(minAcc, a);
            maxAcc = std::max(maxAcc, a);
        }
        rec.metrics["min_shard_accesses"] = static_cast<double>(minAcc);
        rec.metrics["max_shard_accesses"] = static_cast<double>(maxAcc);
        return shards;
    });
}

std::vector<Scenario>
makeShardScenarios()
{
    return {
        shardScenario("shard_bigmem",
                      "Sharded big-memory KV host (8 shards, YCSB-A)",
                      /*promoteBudget=*/0),
        shardScenario("shard_bigmem_budget",
                      "Sharded KV host under a global promotion budget",
                      /*promoteBudget=*/64),
    };
}

}  // namespace harness
}  // namespace mclock
