/**
 * @file
 * Three-tier (DRAM/CXL/PM) scenarios. The paper's testbed is two-tier;
 * these scenarios exercise the rank-ordered topology beyond it: YCSB-A,
 * YCSB-B, and GAPBS PageRank on the paperMachineThreeTier() timing
 * table, comparing every factory policy that runs on a tiered machine
 * (all but memory-mode, which needs a far-memory-only config).
 *
 * Each unit reports per-tier access counts and average device latency
 * ("tier<r>.accesses" / "tier<r>.avg_ns"); under static tiering the
 * averages must order strictly DRAM < CXL < PM, which harness_test
 * pins.
 */

#include <string>

#include "harness/scenario_common.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

void
addTierMetrics(sim::Simulator &sim, RunRecord &rec)
{
    char key[32];
    for (TierRank rank : sim.memory().tierOrder()) {
        const auto acc = sim.metrics().totalTierAccesses(rank);
        const auto lat = sim.metrics().totalTierLatency(rank);
        std::snprintf(key, sizeof(key), "tier%d.accesses", rank);
        rec.metrics[key] = static_cast<double>(acc);
        std::snprintf(key, sizeof(key), "tier%d.avg_ns", rank);
        rec.metrics[key] =
            acc ? static_cast<double>(lat) / static_cast<double>(acc)
                : 0.0;
    }
}

namespace {

/** Every factory policy that runs on a multi-tier machine. */
const std::vector<std::string> &
tier3Policies()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &name : policies::policyNames()) {
            if (name != "memory-mode")
                out.push_back(name);
        }
        return out;
    }();
    return names;
}

/** Rank labels for the three-tier table (ranks of the tier3 machines). */
constexpr const char *kTierLabels[3] = {"dram", "cxl", "pm"};

/** YCSB phase @p W with the per-tier keys. */
template <workloads::YcsbWorkload W>
UnitSpec
tier3Ycsb(const RunContext &ctx, const std::string &policy)
{
    return {{policy,
             ctx.golden ? goldenTier3YcsbMachine() : tier3YcsbMachine()},
            YcsbUnit{ycsbWorkload(ctx, 1200000, 60000, 1), {W},
                     YcsbKeys::Tiers}};
}

/** PageRank with the per-tier keys. */
UnitSpec
tier3Pagerank(const RunContext &ctx, const std::string &policy)
{
    auto graph = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    graph.seed = ctx.derivedSeed(2, graph.seed);
    return {{policy,
             ctx.golden ? goldenTier3GapbsMachine() : tier3GapbsMachine()},
            GapbsUnit{graph, workloads::gapbs::Kernel::PR, GapbsKeys::Tiers}};
}

/**
 * A tier3_* scenario: one @p unit per policy, reduced to a policy
 * table of @p metric with the per-tier access breakdown.
 */
Scenario
tier3Scenario(const char *name, const char *title, const char *workload,
              UnitSpec (*unit)(const RunContext &, const std::string &),
              const char *metric, const char *metricLabel,
              std::vector<ParamSpec> params)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = workload;
    sc.policies = tier3Policies();
    sc.params = std::move(params);
    sc.expand = [sc, unit](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies)
            units.push_back({policy, unit(ctx, policy)});
        return units;
    };
    sc.reduce = [sc, metric, metricLabel](
                    const RunContext &, const std::vector<RunRecord> &records,
                    ScenarioOutput &out) {
        const std::string csvName = sc.name + ".csv";
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        std::vector<Column> columns{{"policy", "policy", 12},
                                    {metric, metricLabel, 10, 1}};
        for (const char *tier : kTierLabels) {
            const std::string t = tier;
            columns.push_back({t + "_accesses", t + ".acc", 15});
            columns.push_back({t + "_avg_ns", t + ".ns", 13, 1});
        }
        Table table(std::move(columns));
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &m = records[i].metrics;
            std::vector<Cell> cells{m.at(metric)};
            char key[32];
            for (int t = 0; t < 3; ++t) {
                std::snprintf(key, sizeof(key), "tier%d.accesses", t);
                cells.push_back(m.at(key));
                std::snprintf(key, sizeof(key), "tier%d.avg_ns", t);
                cells.push_back(m.at(key));
            }
            table.row(sc.policies[i], std::move(cells));
        }
        out.text += table.text();
        appendf(out.text,
                "\nExpected: device latency orders DRAM < CXL < PM; "
                "dynamic policies shift accesses up-rank.\nwrote %s\n",
                csvName.c_str());
        out.artifacts.push_back({csvName, table.csv()});
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeTier3Scenarios()
{
    return {tier3Scenario("tier3_ycsb_a",
                          "Three-tier YCSB-A throughput (DRAM/CXL/PM)",
                          "ycsb", tier3Ycsb<workloads::YcsbWorkload::A>,
                          "kops", "kops/s", {kOpsParam}),
            tier3Scenario("tier3_ycsb_b",
                          "Three-tier YCSB-B throughput (DRAM/CXL/PM)",
                          "ycsb", tier3Ycsb<workloads::YcsbWorkload::B>,
                          "kops", "kops/s", {kOpsParam}),
            tier3Scenario("tier3_pagerank",
                          "Three-tier GAPBS PageRank (DRAM/CXL/PM)",
                          "gapbs", tier3Pagerank, "seconds", "seconds",
                          {})};
}

}  // namespace harness
}  // namespace mclock
