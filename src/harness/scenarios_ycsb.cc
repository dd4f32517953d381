/**
 * @file
 * YCSB-driven scenarios: Fig. 5 (throughput), Fig. 8 (promotion
 * volume), Fig. 9 (re-access quality), Fig. 10 (scan-interval
 * sensitivity), and the four ablations. At the default seed every unit
 * uses the sub-seeds the checked-in golden fixtures were generated
 * with.
 */

#include <algorithm>
#include <map>

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

namespace {

using stats::VmItem;

/** Machine + workload + options for one YCSB experiment run. */
struct YcsbProfile
{
    sim::MachineConfig machine;
    workloads::YcsbConfig ycsb;
    policies::PolicyOptions opts;
};

YcsbProfile
ycsbProfile(const RunContext &ctx, std::uint64_t defaultOps,
            std::uint64_t goldenOps,
            SimTime interval = kScanInterval)
{
    const std::uint64_t ops =
        ctx.param("ops", ctx.golden ? goldenOps : defaultOps);
    YcsbProfile p;
    p.machine = ctx.golden ? goldenYcsbMachine() : ycsbMachine();
    p.machine.seed = ctx.seed;
    applyStatsContext(p.machine, ctx);
    p.ycsb = ctx.golden ? goldenYcsbConfig(ops) : ycsbBenchConfig(ops);
    p.ycsb.seed = ctx.derivedSeed(1, p.ycsb.seed);
    p.opts = benchPolicyOptions(interval);
    return p;
}

/** Load + one workload phase under @p policy; shared unit body. */
RunRecord
runSingleWorkload(const std::string &policy, const YcsbProfile &p,
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
    rec.metrics["reaccessed"] =
        static_cast<double>(sim.metrics().totalReaccessed());
    rec.metrics["hint_faults"] =
        static_cast<double>(sim.vmstat().global(VmItem::PghintFault));
    rec.metrics["scanned_pages"] =
        static_cast<double>(sim.vmstat().global(VmItem::PgscanCharged));
    rec.metrics["inline_overhead_ns"] =
        static_cast<double>(sim.vmstat().global(VmItem::InlineOverheadNs));
    rec.metrics["background_work_ns"] =
        static_cast<double>(sim.vmstat().global(VmItem::BackgroundWorkNs));
    rec.metrics["swap_outs"] =
        static_cast<double>(sim.vmstat().global(VmItem::Pswpout));
    const auto &windows = sim.metrics().windows();
    rec.metrics["windows"] = static_cast<double>(windows.size());
    char key[48];
    for (std::size_t w = 0; w < windows.size(); ++w) {
        std::snprintf(key, sizeof(key), "w%03zu.promotions", w);
        rec.metrics[key] = static_cast<double>(windows[w].promotions);
        std::snprintf(key, sizeof(key), "w%03zu.reaccessed", w);
        rec.metrics[key] =
            static_cast<double>(windows[w].promotedReaccessed);
    }
    checkRunInvariants(sim, rec);
    return rec;
}

constexpr const char *kSequenceWorkloads[] = {"A", "B", "C",
                                              "F", "W", "D"};

// --- Fig. 5 -------------------------------------------------------------

Scenario
fig05Scenario()
{
    Scenario sc;
    sc.name = "fig05";
    sc.title = "Fig. 5: YCSB throughput normalised to static tiering";
    sc.workload = "ycsb";
    sc.policies = policies::tieredPolicyNames();
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back({policy, [policy, ctx](const RunContext &) {
                const auto p = ycsbProfile(ctx, 1200000, 60000);
                RunRecord rec;
                sim::Simulator sim(p.machine);
                sim.setPolicy(policies::makePolicy(policy, p.opts));
                workloads::YcsbDriver driver(sim, p.ycsb);
                driver.load();
                for (const auto &result : driver.runPaperSequence()) {
                    rec.metrics["tput." + result.workload] =
                        result.throughputOpsPerSec();
                }
                rec.metrics["promotions"] = static_cast<double>(
                    sim.vmstat().global(VmItem::PgpromoteSuccess));
                rec.metrics["demotions"] =
                    static_cast<double>(sim.vmstat().global(VmItem::Pgdemote));
                checkRunInvariants(sim, rec);
                return rec;
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        const auto p = ycsbProfile(ctx, 1200000, 60000);
        appendf(out.text,
                "=== Fig. 5: YCSB throughput normalised to static "
                "tiering ===\n");
        appendf(out.text,
                "records=%zu ops/workload=%llu footprint~2.5x DRAM\n",
                p.ycsb.recordCount,
                static_cast<unsigned long long>(p.ycsb.opsPerWorkload));

        CsvWriter csv;
        std::vector<std::string> header{"policy"};
        for (const auto *w : kSequenceWorkloads)
            header.push_back(w);
        csv.writeHeader(header);

        appendf(out.text, "%-12s", "policy");
        for (const auto *w : kSequenceWorkloads)
            appendf(out.text, " %8s", w);
        appendf(out.text, "\n");

        std::vector<double> baseline;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &policy = sc.policies[i];
            std::vector<double> tput;
            for (const auto *w : kSequenceWorkloads)
                tput.push_back(
                    records[i].metrics.at(std::string("tput.") + w));
            if (policy == "static")
                baseline = tput;
            appendf(out.text, "%-12s", policy.c_str());
            std::vector<std::string> row{policy};
            for (std::size_t j = 0; j < tput.size(); ++j) {
                const double norm =
                    baseline[j] > 0.0 ? tput[j] / baseline[j] : 0.0;
                appendf(out.text, " %8.3f", norm);
                row.push_back(std::to_string(norm));
            }
            appendf(out.text, "\n");
            csv.writeRow(row);
        }
        appendf(out.text,
                "\nwrote fig05_ycsb_tiering.csv (values normalised to "
                "static)\n");
        out.artifacts.push_back({"fig05_ycsb_tiering.csv", csv.str()});
    };
    return sc;
}

// --- Fig. 8 / Fig. 9 (windowed promotion metrics) -----------------------

std::vector<RunUnit>
windowUnits(const RunContext &ctx, std::uint64_t defaultOps,
            std::uint64_t goldenOps)
{
    std::vector<RunUnit> units;
    for (const std::string policy : {"multiclock", "nimble"}) {
        units.push_back({policy, [policy, ctx, defaultOps,
                                  goldenOps](const RunContext &) {
            const auto p = ycsbProfile(ctx, defaultOps, goldenOps);
            return runSingleWorkload(policy, p,
                                     workloads::YcsbWorkload::A);
        }});
    }
    return units;
}

/** Per-window series "w000.<key>" -> vector, up to `windows`. */
std::vector<double>
windowSeries(const RunRecord &rec, const char *key)
{
    std::vector<double> out;
    const auto n =
        static_cast<std::size_t>(rec.metrics.at("windows"));
    char name[32];
    for (std::size_t w = 0; w < n; ++w) {
        std::snprintf(name, sizeof(name), "w%03zu.%s", w, key);
        out.push_back(rec.metrics.at(name));
    }
    return out;
}

Scenario
fig08Scenario()
{
    Scenario sc;
    sc.name = "fig08";
    sc.title = "Fig. 8: pages promoted per 20 s window, YCSB-A";
    sc.workload = "ycsb";
    sc.policies = {"multiclock", "nimble"};
    sc.expand = [](const RunContext &ctx) {
        return windowUnits(ctx, 4000000, 120000);
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Fig. 8: pages promoted per 20 s (scaled) window, "
                "YCSB-A ===\n");
        const auto mclock = windowSeries(records[0], "promotions");
        const auto nimble = windowSeries(records[1], "promotions");
        const std::size_t windows =
            std::min(mclock.size(), nimble.size());

        CsvWriter csv;
        csv.writeHeader({"window", "multiclock", "nimble"});
        appendf(out.text, "%-8s %12s %12s\n", "window", "multiclock",
                "nimble");
        std::uint64_t mcTotal = 0, nbTotal = 0;
        for (std::size_t w = 0; w < windows; ++w) {
            const auto mc = static_cast<std::uint64_t>(mclock[w]);
            const auto nb = static_cast<std::uint64_t>(nimble[w]);
            appendf(out.text, "%-8zu %12llu %12llu\n", w,
                    static_cast<unsigned long long>(mc),
                    static_cast<unsigned long long>(nb));
            csv.writeRow({std::to_string(w), std::to_string(mc),
                          std::to_string(nb)});
            mcTotal += mc;
            nbTotal += nb;
        }
        appendf(out.text, "%-8s %12llu %12llu\n", "total",
                static_cast<unsigned long long>(mcTotal),
                static_cast<unsigned long long>(nbTotal));
        appendf(out.text,
                "\nExpected shape: Nimble promotes more pages than "
                "MULTI-CLOCK.\nwrote fig08_promotions.csv\n");
        out.artifacts.push_back({"fig08_promotions.csv", csv.str()});
    };
    return sc;
}

Scenario
fig09Scenario()
{
    Scenario sc;
    sc.name = "fig09";
    sc.title = "Fig. 9: re-access % of recently promoted pages, "
               "YCSB-A";
    sc.workload = "ycsb";
    sc.policies = {"multiclock", "nimble"};
    sc.expand = [](const RunContext &ctx) {
        return windowUnits(ctx, 4000000, 120000);
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Fig. 9: re-access %% of recently promoted pages "
                "per 20 s (scaled) window, YCSB-A ===\n");
        const auto mcProm = windowSeries(records[0], "promotions");
        const auto mcRe = windowSeries(records[0], "reaccessed");
        const auto nbProm = windowSeries(records[1], "promotions");
        const auto nbRe = windowSeries(records[1], "reaccessed");
        const std::size_t windows =
            std::min(mcProm.size(), nbProm.size());

        const auto pct = [](double reacc, double prom) {
            return prom > 0.0 ? 100.0 * reacc / prom : 0.0;
        };

        // The legacy "overall" row sums each policy's *full* window
        // list, not the min-truncated range shown per window.
        const auto overall = [&pct](const std::vector<double> &prom,
                                    const std::vector<double> &reacc) {
            double p = 0, r = 0;
            for (std::size_t w = 0; w < prom.size(); ++w) {
                p += prom[w];
                r += reacc[w];
            }
            return pct(r, p);
        };

        CsvWriter csv;
        csv.writeHeader({"window", "multiclock_pct", "nimble_pct"});
        appendf(out.text, "%-8s %14s %14s\n", "window",
                "multiclock(%)", "nimble(%)");
        for (std::size_t w = 0; w < windows; ++w) {
            if (mcProm[w] == 0 && nbProm[w] == 0)
                continue;
            appendf(out.text, "%-8zu %14.1f %14.1f\n", w,
                    pct(mcRe[w], mcProm[w]), pct(nbRe[w], nbProm[w]));
            csv.writeRow(
                {std::to_string(w),
                 std::to_string(pct(mcRe[w], mcProm[w])),
                 std::to_string(pct(nbRe[w], nbProm[w]))});
        }
        appendf(out.text, "%-8s %14.1f %14.1f\n", "overall",
                overall(mcProm, mcRe), overall(nbProm, nbRe));
        appendf(out.text,
                "\nExpected shape: MULTI-CLOCK's re-access %% exceeds "
                "Nimble's (paper: ~15 points).\n"
                "wrote fig09_reaccess.csv\n");
        out.artifacts.push_back({"fig09_reaccess.csv", csv.str()});
    };
    return sc;
}

// --- Fig. 10 (scan-interval sensitivity) --------------------------------

struct IntervalPoint
{
    const char *label;
    SimTime paperValue;
};

constexpr IntervalPoint kIntervals[] = {
    {"100ms", 100_ms}, {"250ms", 250_ms}, {"500ms", 500_ms},
    {"1s", 1_s},       {"5s", 5_s},       {"60s", 60_s},
};

Scenario
fig10Scenario()
{
    Scenario sc;
    sc.name = "fig10";
    sc.title = "Fig. 10: scan-interval sensitivity, YCSB-A throughput";
    sc.workload = "ycsb";
    sc.policies = {"multiclock", "nimble"};
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &point : kIntervals) {
            for (const auto &policy : sc.policies) {
                const std::string name =
                    policy + "/" + point.label;
                const SimTime interval = scaledTime(point.paperValue);
                units.push_back(
                    {name, [policy, interval, ctx](const RunContext &) {
                        const auto p =
                            ycsbProfile(ctx, 1500000, 60000, interval);
                        return runSingleWorkload(
                            policy, p, workloads::YcsbWorkload::A);
                    }});
            }
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Fig. 10: scan-interval sensitivity, YCSB-A "
                "throughput (kops/s) ===\n");
        appendf(out.text, "%-8s %14s %14s\n", "interval", "multiclock",
                "nimble");
        CsvWriter csv;
        csv.writeHeader({"interval", "multiclock_kops", "nimble_kops"});
        for (std::size_t i = 0; i < std::size(kIntervals); ++i) {
            const double mc = records[2 * i].metrics.at("kops");
            const double nb = records[2 * i + 1].metrics.at("kops");
            appendf(out.text, "%-8s %14.1f %14.1f\n",
                    kIntervals[i].label, mc, nb);
            csv.writeRow({kIntervals[i].label, std::to_string(mc),
                          std::to_string(nb)});
        }
        appendf(out.text,
                "\n(intervals are paper-scale labels; simulated "
                "cadence is scaled by 1/%.0f)\n", kTimeScale);
        appendf(out.text, "wrote fig10_scan_interval.csv\n");
        out.artifacts.push_back({"fig10_scan_interval.csv", csv.str()});
    };
    return sc;
}

// --- Ablations ----------------------------------------------------------

Scenario
ablationPromoteListScenario()
{
    Scenario sc;
    sc.name = "ablation_promote_list";
    sc.title = "Ablation D1: page-selection mechanism";
    sc.workload = "ycsb";
    sc.policies = {"multiclock", "nimble", "amp-lru", "amp-lfu",
                   "amp-random"};
    sc.expand = [sc](const RunContext &ctx) {
        const auto workload = static_cast<workloads::YcsbWorkload>(
            ctx.param("workload", 0));
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back(
                {policy, [policy, workload, ctx](const RunContext &) {
                    const auto p = ycsbProfile(ctx, 1200000, 60000);
                    return runSingleWorkload(policy, p, workload);
                }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        const auto workload = static_cast<workloads::YcsbWorkload>(
            ctx.param("workload", 0));
        appendf(out.text,
                "=== Ablation D1: page-selection mechanism (YCSB-%s) "
                "===\n",
                workloads::ycsbWorkloadName(workload));
        appendf(out.text, "%-12s %12s %12s %12s %12s\n", "selection",
                "kops/s", "promoted", "reaccess%", "demoted");
        CsvWriter csv;
        csv.writeHeader({"selection", "kops", "promoted",
                         "reaccess_pct", "demoted"});
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &m = records[i].metrics;
            const auto promoted =
                static_cast<std::uint64_t>(m.at("promotions"));
            const auto reaccessed =
                static_cast<std::uint64_t>(m.at("reaccessed"));
            const double pct =
                promoted ? 100.0 * static_cast<double>(reaccessed) /
                               static_cast<double>(promoted)
                         : 0.0;
            const auto demoted =
                static_cast<std::uint64_t>(m.at("demotions"));
            appendf(out.text,
                    "%-12s %12.1f %12llu %12.1f %12llu  swaps=%llu\n",
                    sc.policies[i].c_str(), m.at("kops"),
                    static_cast<unsigned long long>(promoted), pct,
                    static_cast<unsigned long long>(demoted),
                    static_cast<unsigned long long>(
                        static_cast<std::uint64_t>(
                            m.at("swap_outs"))));
            csv.writeRow({sc.policies[i], std::to_string(m.at("kops")),
                          std::to_string(promoted), std::to_string(pct),
                          std::to_string(demoted)});
        }
        appendf(out.text, "\nwrote ablation_promote_list.csv\n");
        out.artifacts.push_back(
            {"ablation_promote_list.csv", csv.str()});
    };
    return sc;
}

Scenario
ablationTrackingCostScenario()
{
    Scenario sc;
    sc.name = "ablation_tracking_cost";
    sc.title = "Ablation D2: access-tracking mechanism cost";
    sc.workload = "ycsb";
    sc.policies = policies::tieredPolicyNames();
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back({policy, [policy, ctx](const RunContext &) {
                const auto p = ycsbProfile(ctx, 1200000, 60000);
                return runSingleWorkload(policy, p,
                                         workloads::YcsbWorkload::A);
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Ablation D2: access-tracking mechanism cost "
                "(YCSB-A) ===\n");
        appendf(out.text, "%-12s %10s %12s %14s %16s %16s\n", "policy",
                "kops/s", "hint_faults", "scanned_pages",
                "inline_ovh(ms)", "bg_work(ms)");
        CsvWriter csv;
        csv.writeHeader({"policy", "kops", "hint_faults",
                         "scanned_pages", "inline_overhead_ms",
                         "background_work_ms"});
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &m = records[i].metrics;
            const double inlineMs = m.at("inline_overhead_ns") / 1e6;
            const double bgMs = m.at("background_work_ns") / 1e6;
            appendf(out.text, "%-12s %10.1f %12llu %14llu %16.2f "
                              "%16.2f\n",
                    sc.policies[i].c_str(), m.at("kops"),
                    static_cast<unsigned long long>(
                        static_cast<std::uint64_t>(
                            m.at("hint_faults"))),
                    static_cast<unsigned long long>(
                        static_cast<std::uint64_t>(
                            m.at("scanned_pages"))),
                    inlineMs, bgMs);
            csv.writeRow(
                {sc.policies[i], std::to_string(m.at("kops")),
                 std::to_string(static_cast<std::uint64_t>(
                     m.at("hint_faults"))),
                 std::to_string(static_cast<std::uint64_t>(
                     m.at("scanned_pages"))),
                 std::to_string(inlineMs), std::to_string(bgMs)});
        }
        appendf(out.text,
                "\nExpected: AT-* pay hint faults + fault-path "
                "migrations inline; reference-bit policies pay only "
                "background scans.\nwrote ablation_tracking_cost.csv\n");
        out.artifacts.push_back(
            {"ablation_tracking_cost.csv", csv.str()});
    };
    return sc;
}

struct RatioPoint
{
    const char *label;
    std::size_t dram;
    std::size_t pmem;
};

std::vector<RatioPoint>
ratioPoints(bool golden)
{
    if (golden) {
        return {{"1:2", 6_MiB, 12_MiB},
                {"1:4", 4_MiB, 16_MiB},
                {"1:8", 2_MiB, 16_MiB},
                {"1:16", 1_MiB, 16_MiB}};
    }
    return {{"1:2", 24_MiB, 48_MiB},
            {"1:4", 16_MiB, 64_MiB},
            {"1:8", 8_MiB, 64_MiB},
            {"1:16", 4_MiB, 64_MiB}};
}

Scenario
ablationRatioScenario()
{
    Scenario sc;
    sc.name = "ablation_ratio";
    sc.title = "Ablation D4: DRAM:PM capacity ratio sweep";
    sc.workload = "ycsb";
    sc.policies = {"static", "multiclock"};
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &r : ratioPoints(ctx.golden)) {
            for (const auto &policy : sc.policies) {
                const std::string name =
                    policy + "/" + r.label;
                units.push_back(
                    {name, [policy, r, ctx](const RunContext &) {
                        auto p = ycsbProfile(ctx, 1000000, 50000);
                        p.machine.nodes = {{TierKind::Dram, r.dram},
                                           {TierKind::Pmem, r.pmem}};
                        return runSingleWorkload(
                            policy, p, workloads::YcsbWorkload::A);
                    }});
            }
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Ablation D4: DRAM:PM ratio sweep (YCSB-A, "
                "fixed footprint) ===\n");
        appendf(out.text, "%-6s %14s %14s %10s\n", "ratio",
                "static(kops)", "mclock(kops)", "speedup");
        CsvWriter csv;
        csv.writeHeader({"ratio", "static_kops", "multiclock_kops",
                         "speedup"});
        const auto points = ratioPoints(ctx.golden);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const double st = records[2 * i].metrics.at("kops");
            const double mc = records[2 * i + 1].metrics.at("kops");
            appendf(out.text, "%-6s %14.1f %14.1f %10.3f\n",
                    points[i].label, st, mc, mc / st);
            csv.writeRow({points[i].label, std::to_string(st),
                          std::to_string(mc),
                          std::to_string(mc / st)});
        }
        appendf(out.text,
                "\nExpected: the dynamic-tiering advantage grows as "
                "DRAM becomes scarcer, until DRAM is too small to hold "
                "the hot set.\nwrote ablation_ratio.csv\n");
        out.artifacts.push_back({"ablation_ratio.csv", csv.str()});
    };
    return sc;
}

struct LlcPoint
{
    const char *label;
    std::size_t bytes;
};

std::vector<LlcPoint>
llcPoints(bool golden)
{
    if (golden) {
        return {{"16KiB", 16_KiB},
                {"64KiB", 64_KiB},
                {"256KiB", 256_KiB},
                {"1MiB", 1_MiB}};
    }
    return {{"64KiB", 64_KiB},
            {"256KiB", 256_KiB},
            {"1MiB", 1_MiB},
            {"4MiB", 4_MiB}};
}

Scenario
ablationLlcScenario()
{
    Scenario sc;
    sc.name = "ablation_llc";
    sc.title = "Ablation: LLC size vs tiering benefit";
    sc.workload = "ycsb";
    sc.policies = {"static", "multiclock"};
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &size : llcPoints(ctx.golden)) {
            for (const auto &policy : sc.policies) {
                const std::string name =
                    policy + "/" + size.label;
                units.push_back(
                    {name, [policy, size, ctx](const RunContext &) {
                        auto p = ycsbProfile(ctx, 800000, 50000);
                        p.machine.cache.sizeBytes = size.bytes;
                        p.machine.cache.ways = 8;
                        return runSingleWorkload(
                            policy, p, workloads::YcsbWorkload::A);
                    }});
            }
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        appendf(out.text,
                "=== Ablation: LLC size vs tiering benefit (YCSB-A) "
                "===\n");
        appendf(out.text, "%-8s %14s %14s %10s\n", "LLC",
                "static(kops)", "mclock(kops)", "speedup");
        CsvWriter csv;
        csv.writeHeader({"llc", "static_kops", "multiclock_kops",
                         "speedup"});
        const auto points = llcPoints(ctx.golden);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const double st = records[2 * i].metrics.at("kops");
            const double mc = records[2 * i + 1].metrics.at("kops");
            appendf(out.text, "%-8s %14.1f %14.1f %10.3f\n",
                    points[i].label, st, mc, mc / st);
            csv.writeRow({points[i].label, std::to_string(st),
                          std::to_string(mc),
                          std::to_string(mc / st)});
        }
        appendf(out.text,
                "\nExpected: the larger the LLC relative to the hot "
                "band, the smaller the benefit of page placement.\n"
                "wrote ablation_llc.csv\n");
        out.artifacts.push_back({"ablation_llc.csv", csv.str()});
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeYcsbScenarios()
{
    return {fig05Scenario(),
            fig08Scenario(),
            fig09Scenario(),
            fig10Scenario(),
            ablationPromoteListScenario(),
            ablationTrackingCostScenario(),
            ablationRatioScenario(),
            ablationLlcScenario()};
}

}  // namespace harness
}  // namespace mclock
