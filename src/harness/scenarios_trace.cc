/**
 * @file
 * Motivation-study scenarios: Fig. 1 heatmaps, Fig. 2 window analysis,
 * and Table I. At the default seed every unit uses the sub-seeds the
 * checked-in golden fixtures were generated with.
 */

#include <memory>
#include <sstream>

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "trace/heatmap.hh"
#include "trace/window_analysis.hh"
#include "workloads/synthetic.hh"

namespace mclock {
namespace harness {

namespace {

const workloads::SyntheticProfile kProfiles[] = {
    workloads::SyntheticProfile::Rubis,
    workloads::SyntheticProfile::SpecPower,
    workloads::SyntheticProfile::Xalan,
    workloads::SyntheticProfile::Lusearch,
};

/** Shared synthetic-run setup for fig01/fig02 units. */
struct SyntheticRun
{
    trace::AccessTrace trace;
    workloads::SyntheticConfig cfg;
};

/** Trace @p profile on static tiering (the fig01/fig02 unit host). */
RunRecord
runSynthetic(const RunContext &ctx, workloads::SyntheticProfile profile,
             SyntheticRun &out)
{
    const std::uint64_t seconds =
        ctx.param("seconds", ctx.golden ? 12 : 120);
    out.cfg.numPages = ctx.golden ? 600 : 2000;
    out.cfg.duration = seconds * 1_s;
    out.cfg.seed = ctx.derivedSeed(3, out.cfg.seed);
    return runHost(ctx, ycsbHost(ctx, "static"),
                   [&](sim::Simulator &sim, RunRecord &) {
        auto workload = std::make_unique<workloads::SyntheticWorkload>(
            sim, profile, out.cfg);
        workload->run(out.trace);
        return workload;
    });
}

Scenario
fig01Scenario()
{
    Scenario sc;
    sc.name = "fig01";
    sc.title = "Fig. 1: page access heatmaps (50 pages x time)";
    sc.workload = "synthetic";
    sc.policies = {"static"};
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (auto profile : kProfiles) {
            const char *name = workloads::syntheticProfileName(profile);
            units.push_back({name, [profile, name,
                                    ctx](const RunContext &) {
                SyntheticRun run;
                RunRecord rec = runSynthetic(ctx, profile, run);

                trace::HeatmapConfig hmCfg;
                hmCfg.sampledPages = 50;
                hmCfg.timeBuckets = 64;
                hmCfg.seed = ctx.derivedSeed(7, hmCfg.seed);
                const trace::Heatmap hm = trace::Heatmap::build(
                    run.trace, run.cfg.numPages, hmCfg);

                appendf(rec.text,
                        "\n--- (%s): %zu traced accesses ---\n", name,
                        run.trace.size());
                std::ostringstream render;
                hm.render(render);
                rec.text += render.str();

                CsvWriter csv;
                hm.writeCsv(csv);
                rec.artifacts.push_back(
                    {std::string("fig01_") + name + ".csv", csv.str()});
                appendf(rec.text, "wrote fig01_%s.csv\n", name);

                // Regression summary: trace volume plus a positional
                // checksum of the heat matrix (order-sensitive).
                rec.metrics["traced"] =
                    static_cast<double>(run.trace.size());
                std::uint64_t sum = 0, fnv = 0xcbf29ce484222325ull;
                for (std::size_t r = 0; r < hm.numRows(); ++r) {
                    for (std::size_t b = 0; b < hm.numBuckets(); ++b) {
                        const std::uint64_t c = hm.count(r, b);
                        sum += c;
                        fnv = (fnv ^ c) * 0x100000001b3ull;
                    }
                }
                rec.metrics["heat_sum"] = static_cast<double>(sum);
                rec.metrics["heat_checksum"] =
                    static_cast<double>(fnv % 1000000007ull);
                return rec;
            }});
        }
        return units;
    };
    sc.reduce = [](const RunContext &, const std::vector<RunRecord> &,
                   ScenarioOutput &out) {
        std::string head;
        appendf(head, "=== Fig. 1: page access heatmaps "
                      "(50 sampled pages x time) ===\n");
        out.text = head + out.text;
        appendf(out.text,
                "\nExpected shape: rows split into always-hot "
                "(DRAM-friendly), sparse (infrequent), and bimodal "
                "phase-hot (Tier-friendly) pages.\n");
    };
    return sc;
}

Scenario
fig02Scenario()
{
    Scenario sc;
    sc.name = "fig02";
    sc.title = "Fig. 2: observation/performance window frequency "
               "analysis";
    sc.workload = "synthetic";
    sc.policies = {"static"};
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (auto profile : kProfiles) {
            const char *name = workloads::syntheticProfileName(profile);
            units.push_back({name, [profile, ctx](const RunContext &) {
                SyntheticRun run;
                RunRecord rec = runSynthetic(ctx, profile, run);
                const SimTime window =
                    1_s * ctx.param("window-s", 2);
                const auto r =
                    trace::analyzeWindows(run.trace, window, window);
                rec.metrics["single_mean"] = r.singleMeanPerfAccesses;
                rec.metrics["multi_mean"] = r.multiMeanPerfAccesses;
                rec.metrics["ratio"] = r.ratio();
                rec.metrics["single_samples"] =
                    static_cast<double>(r.singleSamples);
                rec.metrics["multi_samples"] =
                    static_cast<double>(r.multiSamples);
                return rec;
            }});
        }
        return units;
    };
    sc.reduce = [](const RunContext &,
                   const std::vector<RunRecord> &records,
                   ScenarioOutput &out) {
        appendf(out.text,
                "=== Fig. 2: accesses in the performance window, by "
                "observation-window frequency class ===\n");
        appendf(out.text, "%-14s %14s %14s %8s\n", "workload",
                "single (mean)", "multi (mean)", "ratio");
        CsvWriter csv;
        csv.writeHeader({"workload", "single_mean", "multi_mean",
                         "ratio", "single_samples", "multi_samples"});
        for (std::size_t i = 0; i < records.size(); ++i) {
            const char *name =
                workloads::syntheticProfileName(kProfiles[i]);
            const auto &m = records[i].metrics;
            appendf(out.text, "%-14s %14.2f %14.2f %8.2f\n", name,
                    m.at("single_mean"), m.at("multi_mean"),
                    m.at("ratio"));
            csv.writeRow({std::string(name),
                          std::to_string(m.at("single_mean")),
                          std::to_string(m.at("multi_mean")),
                          std::to_string(m.at("ratio")),
                          std::to_string(static_cast<std::uint64_t>(
                              m.at("single_samples"))),
                          std::to_string(static_cast<std::uint64_t>(
                              m.at("multi_samples")))});
        }
        appendf(out.text,
                "\nExpected shape: multi >> single for every workload "
                "(the paper's Fig. 2).\nwrote fig02_frequency.csv\n");
        out.artifacts.push_back({"fig02_frequency.csv", csv.str()});
    };
    return sc;
}

Scenario
tab01Scenario()
{
    Scenario sc;
    sc.name = "tab01";
    sc.title = "Table I: comparison of tiering techniques";
    sc.workload = "none";
    sc.policies = {"static",  "autonuma",   "at-cpm",
                   "at-opm",  "nimble",     "amp-lru",
                   "multiclock", "memory-mode"};
    sc.goldenEligible = false;  // static metadata, nothing to regress
    sc.expand = [sc](const RunContext &) {
        std::vector<RunUnit> units;
        units.push_back({"table", [sc](const RunContext &) {
            RunRecord rec;
            appendf(rec.text,
                    "=== Table I: comparison of tiering techniques "
                    "===\n");
            appendf(rec.text,
                    "%-18s %-22s %-26s %-11s %-6s %-9s %-10s %-18s "
                    "%-s\n",
                    "Tiering", "Tracking", "Promotion", "Demotion",
                    "NUMA", "SpaceOvh", "General", "Evaluation",
                    "Key insight");
            for (const auto &name : sc.policies) {
                const auto policy = policies::makePolicy(name, 1_MiB);
                const auto row = policy->features();
                appendf(rec.text,
                        "%-18s %-22s %-26s %-11s %-6s %-9s %-10s "
                        "%-18s %-s\n",
                        row.tiering.c_str(), row.tracking.c_str(),
                        row.promotion.c_str(), row.demotion.c_str(),
                        row.numaAware.c_str(),
                        row.spaceOverhead.c_str(),
                        row.generality.c_str(), row.evaluation.c_str(),
                        row.keyInsight.c_str());
            }
            return rec;
        }});
        return units;
    };
    // The merged unit texts are the whole table.
    sc.reduce = [](const RunContext &, const std::vector<RunRecord> &,
                   ScenarioOutput &) {};
    return sc;
}

}  // namespace

std::vector<Scenario>
makeTraceScenarios()
{
    return {fig01Scenario(), fig02Scenario(), tab01Scenario()};
}

}  // namespace harness
}  // namespace mclock
