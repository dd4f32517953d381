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

/** Traced simulated seconds of a fig01/fig02 unit. */
std::uint64_t
syntheticSeconds(const RunContext &ctx)
{
    return ctx.param("seconds", ctx.golden ? 12 : 120);
}

/** Length of each fig02 observation and performance window. */
std::uint64_t
windowSeconds(const RunContext &ctx)
{
    return ctx.param("window-s", 2);
}

/** The fig01/fig02 synthetic run at the context's scale and seed. */
workloads::SyntheticConfig
syntheticConfig(const RunContext &ctx)
{
    workloads::SyntheticConfig cfg;
    cfg.numPages = ctx.golden ? 600 : 2000;
    cfg.duration = syntheticSeconds(ctx) * 1_s;
    cfg.seed = ctx.derivedSeed(3, cfg.seed);
    return cfg;
}

/** Trace @p profile under @p cfg on @p host into @p trace. */
RunRecord
runSynthetic(const RunContext &ctx, const HostSpec &host,
             workloads::SyntheticProfile profile,
             const workloads::SyntheticConfig &cfg, trace::AccessTrace &trace)
{
    return runHost(ctx, host, [&](sim::Simulator &sim, RunRecord &) {
        auto workload = std::make_unique<workloads::SyntheticWorkload>(
            sim, profile, cfg);
        workload->run(trace);
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
    sc.params = {{"seconds", 1, 3600}};
    sc.policies = {"static"};
    sc.expand = [](const RunContext &ctx) {
        trace::HeatmapConfig heatmap;
        heatmap.sampledPages = 50;
        heatmap.timeBuckets = 64;
        heatmap.seed = ctx.derivedSeed(7, heatmap.seed);
        std::vector<RunUnit> units;
        for (auto profile : kProfiles) {
            units.push_back({workloads::syntheticProfileName(profile),
                             {ycsbHost(ctx, "static"),
                              HeatmapUnit{profile, syntheticConfig(ctx),
                                          heatmap}}});
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
    sc.params = {{"seconds", 1, 3600}, {"window-s", 1, 3600}};
    sc.policies = {"static"};
    // An observation window and the performance window after it must
    // both fit into the trace; otherwise no page has a performance
    // window and every mean reads 0.
    sc.checkParams = [](const RunContext &ctx) {
        const std::uint64_t seconds = syntheticSeconds(ctx);
        const std::uint64_t window = windowSeconds(ctx);
        if (2 * window <= seconds)
            return std::string();
        return "window-s=" + std::to_string(window) +
               " does not fit twice into seconds=" +
               std::to_string(seconds);
    };
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (auto profile : kProfiles) {
            units.push_back({workloads::syntheticProfileName(profile),
                             {ycsbHost(ctx, "static"),
                              WindowUnit{profile, syntheticConfig(ctx),
                                         1_s * windowSeconds(ctx)}}});
        }
        return units;
    };
    sc.reduce = [](const RunContext &,
                   const std::vector<RunRecord> &records,
                   ScenarioOutput &out) {
        appendf(out.text,
                "=== Fig. 2: accesses in the performance window, by "
                "observation-window frequency class ===\n");
        Table table({{"workload", "workload", 14},
                     {"single_mean", "single (mean)", 14, 2},
                     {"multi_mean", "multi (mean)", 14, 2},
                     {"ratio", "ratio", 8, 2},
                     {"single_samples", ""},
                     {"multi_samples", ""}});
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &m = records[i].metrics;
            table.row(workloads::syntheticProfileName(kProfiles[i]),
                      {m.at("single_mean"), m.at("multi_mean"),
                       m.at("ratio"),
                       static_cast<std::uint64_t>(m.at("single_samples")),
                       static_cast<std::uint64_t>(m.at("multi_samples"))});
        }
        out.text += table.text();
        appendf(out.text,
                "\nExpected shape: multi >> single for every workload "
                "(the paper's Fig. 2).\nwrote fig02_frequency.csv\n");
        out.artifacts.push_back({"fig02_frequency.csv", table.csv()});
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
    // One unit that simulates nothing: the table is the policies'
    // own description of themselves.
    sc.expand = [](const RunContext &) {
        return std::vector<RunUnit>{{"table", {}}};
    };
    sc.reduce = [sc](const RunContext &, const std::vector<RunRecord> &,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Table I: comparison of tiering techniques ===\n");
        appendf(out.text,
                "%-18s %-22s %-26s %-11s %-6s %-9s %-10s %-18s %-s\n",
                "Tiering", "Tracking", "Promotion", "Demotion", "NUMA",
                "SpaceOvh", "General", "Evaluation", "Key insight");
        for (const auto &name : sc.policies) {
            const auto row = policies::makePolicy(name, 1_MiB)->features();
            appendf(out.text,
                    "%-18s %-22s %-26s %-11s %-6s %-9s %-10s %-18s %-s\n",
                    row.tiering.c_str(), row.tracking.c_str(),
                    row.promotion.c_str(), row.demotion.c_str(),
                    row.numaAware.c_str(), row.spaceOverhead.c_str(),
                    row.generality.c_str(), row.evaluation.c_str(),
                    row.keyInsight.c_str());
        }
    };
    return sc;
}

}  // namespace

RunRecord
runWorkload(const RunContext &ctx, const HostSpec &host,
            const HeatmapUnit &unit)
{
    trace::AccessTrace trace;
    RunRecord rec =
        runSynthetic(ctx, host, unit.profile, unit.synthetic, trace);
    const trace::Heatmap hm = trace::Heatmap::build(
        trace, unit.synthetic.numPages, unit.heatmap);
    const char *name = workloads::syntheticProfileName(unit.profile);

    appendf(rec.text, "\n--- (%s): %zu traced accesses ---\n", name,
            trace.size());
    std::ostringstream render;
    hm.render(render);
    rec.text += render.str();

    CsvWriter csv;
    hm.writeCsv(csv);
    rec.artifacts.push_back(
        {std::string("fig01_") + name + ".csv", csv.str()});
    appendf(rec.text, "wrote fig01_%s.csv\n", name);

    // Regression summary: trace volume plus a positional checksum of
    // the heat matrix (order-sensitive).
    rec.metrics["traced"] = static_cast<double>(trace.size());
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
}

RunRecord
runWorkload(const RunContext &ctx, const HostSpec &host,
            const WindowUnit &unit)
{
    trace::AccessTrace trace;
    RunRecord rec =
        runSynthetic(ctx, host, unit.profile, unit.synthetic, trace);
    const auto r = trace::analyzeWindows(trace, unit.window, unit.window);
    rec.metrics["single_mean"] = r.singleMeanPerfAccesses;
    rec.metrics["multi_mean"] = r.multiMeanPerfAccesses;
    rec.metrics["ratio"] = r.ratio();
    rec.metrics["single_samples"] = static_cast<double>(r.singleSamples);
    rec.metrics["multi_samples"] = static_cast<double>(r.multiSamples);
    return rec;
}

std::vector<Scenario>
makeTraceScenarios()
{
    return {fig01Scenario(), fig02Scenario(), tab01Scenario()};
}

}  // namespace harness
}  // namespace mclock
