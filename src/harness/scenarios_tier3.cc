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

// --- YCSB on three tiers ------------------------------------------------

struct Tier3YcsbProfile
{
    sim::MachineConfig machine;
    workloads::YcsbConfig ycsb;
    policies::PolicyOptions opts;
};

Tier3YcsbProfile
tier3YcsbProfile(const RunContext &ctx)
{
    const std::uint64_t ops =
        ctx.param("ops", ctx.golden ? 60000 : 1200000);
    Tier3YcsbProfile p;
    p.machine =
        ctx.golden ? goldenTier3YcsbMachine() : tier3YcsbMachine();
    p.machine.seed = ctx.seed;
    applyStatsContext(p.machine, ctx);
    p.ycsb = ctx.golden ? goldenYcsbConfig(ops) : ycsbBenchConfig(ops);
    p.ycsb.seed = ctx.derivedSeed(1, p.ycsb.seed);
    p.opts = benchPolicyOptions();
    return p;
}

RunRecord
runTier3Ycsb(const std::string &policy, const Tier3YcsbProfile &p,
             workloads::YcsbWorkload workload)
{
    RunRecord rec;
    sim::Simulator sim(p.machine);
    sim.setPolicy(policies::makePolicy(policy, p.opts));
    workloads::YcsbDriver driver(sim, p.ycsb);
    driver.load();
    const auto r = driver.run(workload);
    rec.metrics["kops"] = r.throughputOpsPerSec() / 1e3;
    rec.metrics["promotions"] =
        static_cast<double>(sim.vmstat().global(VmItem::PgpromoteSuccess));
    rec.metrics["demotions"] =
        static_cast<double>(sim.vmstat().global(VmItem::Pgdemote));
    rec.metrics["swap_outs"] =
        static_cast<double>(sim.vmstat().global(VmItem::Pswpout));
    addTierMetrics(sim, rec);
    checkRunInvariants(sim, rec);
    return rec;
}

/** Rank labels for the three-tier table (ranks of the tier3 machines). */
constexpr const char *kTierLabels[3] = {"dram", "cxl", "pm"};

/** Shared reduce body: policy table with per-tier access breakdown. */
void
tier3Reduce(const Scenario &sc, const std::vector<RunRecord> &records,
            ScenarioOutput &out, const char *metric,
            const char *metricLabel, const char *csvName)
{
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
            csvName);
    out.artifacts.push_back({csvName, csv.str()});
}

Scenario
tier3YcsbScenario(const char *name, const char *title,
                  workloads::YcsbWorkload workload, const char *csvName)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = "ycsb";
    sc.policies = tier3Policies();
    sc.expand = [sc, workload](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back(
                {policy, [policy, workload, ctx](const RunContext &) {
                    return runTier3Ycsb(policy, tier3YcsbProfile(ctx),
                                        workload);
                }});
        }
        return units;
    };
    const std::string csvStr = csvName;
    sc.reduce = [sc, csvStr](const RunContext &,
                             const std::vector<RunRecord> &records,
                             ScenarioOutput &out) {
        tier3Reduce(sc, records, out, "kops", "kops/s",
                    csvStr.c_str());
    };
    return sc;
}

// --- GAPBS PageRank on three tiers --------------------------------------

struct Tier3GapbsProfile
{
    sim::MachineConfig machine;
    workloads::gapbs::GapbsConfig gapbs;
    policies::PolicyOptions opts;
};

Tier3GapbsProfile
tier3GapbsProfile(const RunContext &ctx)
{
    Tier3GapbsProfile p;
    p.machine =
        ctx.golden ? goldenTier3GapbsMachine() : tier3GapbsMachine();
    p.machine.seed = ctx.seed;
    applyStatsContext(p.machine, ctx);
    p.gapbs = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    p.gapbs.seed = ctx.derivedSeed(2, p.gapbs.seed);
    p.opts = benchPolicyOptions();
    return p;
}

Scenario
tier3PagerankScenario()
{
    Scenario sc;
    sc.name = "tier3_pagerank";
    sc.title = "Three-tier GAPBS PageRank (DRAM/CXL/PM)";
    sc.workload = "gapbs";
    sc.policies = tier3Policies();
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back({policy, [policy, ctx](const RunContext &) {
                const auto p = tier3GapbsProfile(ctx);
                RunRecord rec;
                sim::Simulator sim(p.machine);
                sim.setPolicy(policies::makePolicy(policy, p.opts));
                workloads::gapbs::GapbsDriver driver(sim, p.gapbs);
                const auto r =
                    driver.run(workloads::gapbs::Kernel::PR);
                rec.metrics["seconds"] = r.avgTrialSeconds();
                rec.metrics["promotions"] = static_cast<double>(
                    sim.vmstat().global(VmItem::PgpromoteSuccess));
                rec.metrics["demotions"] =
                    static_cast<double>(sim.vmstat().global(VmItem::Pgdemote));
                addTierMetrics(sim, rec);
                checkRunInvariants(sim, rec);
                return rec;
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        tier3Reduce(sc, records, out, "seconds", "seconds",
                    "tier3_pagerank.csv");
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeTier3Scenarios()
{
    return {tier3YcsbScenario(
                "tier3_ycsb_a",
                "Three-tier YCSB-A throughput (DRAM/CXL/PM)",
                workloads::YcsbWorkload::A, "tier3_ycsb_a.csv"),
            tier3YcsbScenario(
                "tier3_ycsb_b",
                "Three-tier YCSB-B throughput (DRAM/CXL/PM)",
                workloads::YcsbWorkload::B, "tier3_ycsb_b.csv"),
            tier3PagerankScenario()};
}

}  // namespace harness
}  // namespace mclock
