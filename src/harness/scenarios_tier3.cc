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

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

namespace {

using stats::VmItem;

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

/** Per-tier access/latency totals, keyed "tier<r>.accesses|avg_ns". */
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

/** Rank labels for the three-tier table (ranks of the tier3 machines). */
constexpr const char *kTierLabels[3] = {"dram", "cxl", "pm"};

/** YCSB phase @p W: throughput, migration and per-tier metrics. */
template <workloads::YcsbWorkload W>
RunRecord
tier3Ycsb(const RunContext &ctx, const std::string &policy)
{
    return runYcsb(
        ctx,
        {policy, ctx.golden ? goldenTier3YcsbMachine() : tier3YcsbMachine()},
        ycsbWorkload(ctx, 1200000, 60000, 1), {W},
        [](sim::Simulator &sim, const auto &results, RunRecord &rec) {
            rec.metrics["kops"] = results[0].throughputOpsPerSec() / 1e3;
            addMigrationMetrics(sim, rec);
            rec.metrics["swap_outs"] = static_cast<double>(
                sim.vmstat().global(VmItem::Pswpout));
            addTierMetrics(sim, rec);
        });
}

/** PageRank: trial time, migration and per-tier metrics. */
RunRecord
tier3Pagerank(const RunContext &ctx, const std::string &policy)
{
    auto graph = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    graph.seed = ctx.derivedSeed(2, graph.seed);
    return runGapbs(
        ctx,
        {policy, ctx.golden ? goldenTier3GapbsMachine() : tier3GapbsMachine()},
        graph, workloads::gapbs::Kernel::PR,
        [](sim::Simulator &sim, RunRecord &rec) {
            addMigrationMetrics(sim, rec);
            addTierMetrics(sim, rec);
        });
}

/**
 * A tier3_* scenario: one @p run unit per policy, reduced to a policy
 * table of @p metric with the per-tier access breakdown.
 */
Scenario
tier3Scenario(const char *name, const char *title, const char *workload,
              RunRecord (*run)(const RunContext &, const std::string &),
              const char *metric, const char *metricLabel)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = workload;
    sc.policies = tier3Policies();
    sc.expand = [sc, run](const RunContext &) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back({policy, [policy, run](const RunContext &ctx) {
                return run(ctx, policy);
            }});
        }
        return units;
    };
    sc.reduce = [sc, metric, metricLabel](
                    const RunContext &, const std::vector<RunRecord> &records,
                    ScenarioOutput &out) {
        const std::string csvName = sc.name + ".csv";
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        appendf(out.text, "%-12s %10s", "policy", metricLabel);
        for (int t = 0; t < 3; ++t)
            appendf(out.text, " %11s.acc %9s.ns", kTierLabels[t],
                    kTierLabels[t]);
        appendf(out.text, "\n");

        CsvWriter csv;
        std::vector<std::string> header{"policy", metric};
        for (int t = 0; t < 3; ++t) {
            header.push_back(std::string(kTierLabels[t]) + "_accesses");
            header.push_back(std::string(kTierLabels[t]) + "_avg_ns");
        }
        csv.writeHeader(header);

        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &m = records[i].metrics;
            appendf(out.text, "%-12s %10.1f", sc.policies[i].c_str(),
                    m.at(metric));
            std::vector<std::string> row{sc.policies[i],
                                         std::to_string(m.at(metric))};
            char key[32];
            for (int t = 0; t < 3; ++t) {
                std::snprintf(key, sizeof(key), "tier%d.accesses", t);
                const double acc = m.at(key);
                std::snprintf(key, sizeof(key), "tier%d.avg_ns", t);
                const double ns = m.at(key);
                appendf(out.text, " %15.0f %13.1f", acc, ns);
                row.push_back(std::to_string(acc));
                row.push_back(std::to_string(ns));
            }
            appendf(out.text, "\n");
            csv.writeRow(row);
        }
        appendf(out.text,
                "\nExpected: device latency orders DRAM < CXL < PM; "
                "dynamic policies shift accesses up-rank.\nwrote %s\n",
                csvName.c_str());
        out.artifacts.push_back({csvName, csv.str()});
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
                          "kops", "kops/s"),
            tier3Scenario("tier3_ycsb_b",
                          "Three-tier YCSB-B throughput (DRAM/CXL/PM)",
                          "ycsb", tier3Ycsb<workloads::YcsbWorkload::B>,
                          "kops", "kops/s"),
            tier3Scenario("tier3_pagerank",
                          "Three-tier GAPBS PageRank (DRAM/CXL/PM)",
                          "gapbs", tier3Pagerank, "seconds", "seconds")};
}

}  // namespace harness
}  // namespace mclock
