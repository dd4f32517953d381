/**
 * @file
 * YCSB-driven scenarios: Fig. 5 (throughput), Fig. 8 (promotion
 * volume), Fig. 9 (re-access quality), Fig. 10 (scan-interval
 * sensitivity), and the four ablations. At the default seed every unit
 * uses the sub-seeds the checked-in golden fixtures were generated
 * with.
 */

#include <algorithm>
#include <functional>
#include <memory>

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

RunRecord
runYcsb(const RunContext &ctx, const HostSpec &host,
        const workloads::YcsbConfig &ycsb,
        const std::vector<workloads::YcsbWorkload> &phases,
        const YcsbReport &report)
{
    return runHost(ctx, host, [&](sim::Simulator &sim, RunRecord &rec) {
        auto driver = std::make_unique<workloads::YcsbDriver>(sim, ycsb);
        driver->load();
        std::vector<workloads::YcsbResult> results;
        for (workloads::YcsbWorkload w : phases)
            results.push_back(driver->run(w));
        report(sim, results, rec);
        return driver;
    });
}

namespace {

using stats::VmItem;
using workloads::YcsbWorkload;

/** Load + one phase; the metrics Figs. 8-10 and the ablations read. */
RunRecord
runPhase(const RunContext &ctx, const HostSpec &host,
         std::uint64_t fullOps, std::uint64_t goldenOps, YcsbWorkload w)
{
    const auto report = [](sim::Simulator &sim, const auto &r,
                           RunRecord &rec) {
        const auto &vm = sim.vmstat();
        rec.metrics["kops"] = r[0].throughputOpsPerSec() / 1e3;
        addMigrationMetrics(sim, rec);
        rec.metrics["reaccessed"] =
            static_cast<double>(sim.metrics().totalReaccessed());
        rec.metrics["hint_faults"] =
            static_cast<double>(vm.global(VmItem::PghintFault));
        rec.metrics["scanned_pages"] =
            static_cast<double>(vm.global(VmItem::PgscanCharged));
        rec.metrics["inline_overhead_ns"] =
            static_cast<double>(vm.global(VmItem::InlineOverheadNs));
        rec.metrics["background_work_ns"] =
            static_cast<double>(vm.global(VmItem::BackgroundWorkNs));
        rec.metrics["swap_outs"] =
            static_cast<double>(vm.global(VmItem::Pswpout));
        const auto &windows = sim.metrics().windows();
        rec.metrics["windows"] = static_cast<double>(windows.size());
        char key[48];
        for (std::size_t i = 0; i < windows.size(); ++i) {
            std::snprintf(key, sizeof(key), "w%03zu.promotions", i);
            rec.metrics[key] = static_cast<double>(windows[i].promotions);
            std::snprintf(key, sizeof(key), "w%03zu.reaccessed", i);
            rec.metrics[key] =
                static_cast<double>(windows[i].promotedReaccessed);
        }
    };
    return runYcsb(ctx, host, ycsbWorkload(ctx, fullOps, goldenOps, 1),
                   {w}, report);
}

/** One unit per policy, each running phase @p w on the YCSB host. */
std::vector<RunUnit>
phaseUnits(const std::vector<std::string> &policies,
           std::uint64_t fullOps, std::uint64_t goldenOps,
           YcsbWorkload w = YcsbWorkload::A)
{
    std::vector<RunUnit> units;
    for (const auto &policy : policies) {
        units.push_back({policy, [=](const RunContext &ctx) {
            return runPhase(ctx, ycsbHost(ctx, policy), fullOps,
                            goldenOps, w);
        }});
    }
    return units;
}

// --- Fig. 5 -------------------------------------------------------------

Scenario
fig05Scenario()
{
    Scenario sc;
    sc.name = "fig05";
    sc.title = "Fig. 5: YCSB throughput normalised to static tiering";
    sc.workload = "ycsb";
    sc.policies = policies::tieredPolicyNames();
    sc.expand = [sc](const RunContext &) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            units.push_back({policy, [policy](const RunContext &ctx) {
                return runYcsb(
                    ctx, ycsbHost(ctx, policy),
                    ycsbWorkload(ctx, 1200000, 60000, 1), kPaperSequence,
                    [](sim::Simulator &sim, const auto &results,
                       RunRecord &rec) {
                        for (const auto &r : results) {
                            rec.metrics["tput." + r.workload] =
                                r.throughputOpsPerSec();
                        }
                        addMigrationMetrics(sim, rec);
                    });
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        const auto ycsb = ycsbWorkload(ctx, 1200000, 60000, 1);
        appendf(out.text,
                "=== Fig. 5: YCSB throughput normalised to static "
                "tiering ===\n");
        appendf(out.text,
                "records=%zu ops/workload=%llu footprint~2.5x DRAM\n",
                ycsb.recordCount,
                static_cast<unsigned long long>(ycsb.opsPerWorkload));
        std::vector<std::string> columns;
        for (YcsbWorkload w : kPaperSequence)
            columns.push_back(workloads::ycsbWorkloadName(w));
        const std::string csv = normalisedToStatic(
            out.text, sc.policies, columns,
            [&](std::size_t p, std::size_t c) {
                return records[p].metrics.at("tput." + columns[c]);
            });
        appendf(out.text,
                "\nwrote fig05_ycsb_tiering.csv (values normalised to "
                "static)\n");
        out.artifacts.push_back({"fig05_ycsb_tiering.csv", csv});
    };
    return sc;
}

// --- Fig. 8 / Fig. 9 (windowed promotion metrics) -----------------------

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
    sc.expand = [sc](const RunContext &) {
        return phaseUnits(sc.policies, 4000000, 120000);
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
    sc.expand = [sc](const RunContext &) {
        return phaseUnits(sc.policies, 4000000, 120000);
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

// --- Policy x point sweeps (Fig. 10, ablations D4 and LLC) -------------

/** One sweep point: its label and how it changes the unit's host. */
struct SweepPoint
{
    std::string label;
    std::function<void(HostSpec &)> apply;
};

/**
 * YCSB-A units for every (point, policy) pair, named
 * "<policy>/<label>", point-major: records[i * policies + p].
 */
std::vector<RunUnit>
sweepUnits(const std::vector<std::string> &policies,
           const std::vector<SweepPoint> &points, std::uint64_t fullOps,
           std::uint64_t goldenOps)
{
    std::vector<RunUnit> units;
    for (const auto &point : points) {
        for (const auto &policy : policies) {
            units.push_back({policy + "/" + point.label,
                             [=](const RunContext &ctx) {
                HostSpec host = ycsbHost(ctx, policy);
                point.apply(host);
                return runPhase(ctx, host, fullOps, goldenOps,
                                YcsbWorkload::A);
            }});
        }
    }
    return units;
}

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
    sc.expand = [sc](const RunContext &) {
        std::vector<SweepPoint> points;
        for (const auto &point : kIntervals) {
            const SimTime interval = scaledTime(point.paperValue);
            points.push_back({point.label, [interval](HostSpec &host) {
                host.opts.scanInterval = interval;
            }});
        }
        return sweepUnits(sc.policies, points, 1500000, 60000);
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

/**
 * A static-vs-multiclock sweep (ablations D4 and LLC): YCSB-A kops of
 * both policies and the speedup, one row per point.
 */
struct SpeedupSweep
{
    const char *name;
    const char *title;
    const char *heading;   ///< the table's "=== ... ===" line
    const char *column;    ///< text header of the point column
    int width;             ///< text width of the point column
    const char *csvColumn;
    const char *expected;  ///< the "Expected: ..." line
    std::uint64_t fullOps, goldenOps;
    std::vector<SweepPoint> (*points)(bool golden);
};

Scenario
speedupSweepScenario(const SpeedupSweep &s)
{
    Scenario sc;
    sc.name = s.name;
    sc.title = s.title;
    sc.workload = "ycsb";
    sc.policies = {"static", "multiclock"};
    sc.expand = [sc, s](const RunContext &ctx) {
        return sweepUnits(sc.policies, s.points(ctx.golden), s.fullOps,
                          s.goldenOps);
    };
    sc.reduce = [s](const RunContext &ctx,
                    const std::vector<RunRecord> &records,
                    ScenarioOutput &out) {
        const std::string csvName = s.name + std::string(".csv");
        appendf(out.text, "=== %s ===\n", s.heading);
        appendf(out.text, "%-*s %14s %14s %10s\n", s.width, s.column,
                "static(kops)", "mclock(kops)", "speedup");
        CsvWriter csv;
        csv.writeHeader({s.csvColumn, "static_kops", "multiclock_kops",
                         "speedup"});
        const auto points = s.points(ctx.golden);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const double st = records[2 * i].metrics.at("kops");
            const double mc = records[2 * i + 1].metrics.at("kops");
            appendf(out.text, "%-*s %14.1f %14.1f %10.3f\n", s.width,
                    points[i].label.c_str(), st, mc, mc / st);
            csv.writeRow({points[i].label, std::to_string(st),
                          std::to_string(mc), std::to_string(mc / st)});
        }
        appendf(out.text, "\nExpected: %s\nwrote %s\n", s.expected,
                csvName.c_str());
        out.artifacts.push_back({csvName, csv.str()});
    };
    return sc;
}

/** D4 points: DRAM:PM ratios at a fixed footprint. */
std::vector<SweepPoint>
ratioPoints(bool golden)
{
    struct Ratio
    {
        const char *label;
        std::size_t dram, pmem;
    };
    static const Ratio kGolden[] = {{"1:2", 6_MiB, 12_MiB},
                                    {"1:4", 4_MiB, 16_MiB},
                                    {"1:8", 2_MiB, 16_MiB},
                                    {"1:16", 1_MiB, 16_MiB}};
    static const Ratio kFull[] = {{"1:2", 24_MiB, 48_MiB},
                                  {"1:4", 16_MiB, 64_MiB},
                                  {"1:8", 8_MiB, 64_MiB},
                                  {"1:16", 4_MiB, 64_MiB}};
    std::vector<SweepPoint> points;
    for (const Ratio &r : golden ? kGolden : kFull) {
        points.push_back({r.label, [r](HostSpec &host) {
            host.machine.nodes = {{TierKind::Dram, r.dram},
                                  {TierKind::Pmem, r.pmem}};
        }});
    }
    return points;
}

/** LLC points: cache sizes against the same hot band. */
std::vector<SweepPoint>
llcPoints(bool golden)
{
    struct Llc
    {
        const char *label;
        std::size_t bytes;
    };
    static const Llc kGolden[] = {{"16KiB", 16_KiB},
                                  {"64KiB", 64_KiB},
                                  {"256KiB", 256_KiB},
                                  {"1MiB", 1_MiB}};
    static const Llc kFull[] = {{"64KiB", 64_KiB},
                                {"256KiB", 256_KiB},
                                {"1MiB", 1_MiB},
                                {"4MiB", 4_MiB}};
    std::vector<SweepPoint> points;
    for (const Llc &l : golden ? kGolden : kFull) {
        points.push_back({l.label, [l](HostSpec &host) {
            host.machine.cache.sizeBytes = l.bytes;
        }});
    }
    return points;
}

// --- Ablations D1 and D2 ------------------------------------------------

/** --param workload: A/B/C/D/F/W; E does not run on the KV store. */
YcsbWorkload
promoteListWorkload(const RunContext &ctx)
{
    const std::uint64_t w = ctx.param("workload", 0);
    if (w > static_cast<std::uint64_t>(YcsbWorkload::W) ||
        w == static_cast<std::uint64_t>(YcsbWorkload::E)) {
        MCLOCK_FATAL("ablation_promote_list: bad --param workload=%llu "
                     "(want 0=A 1=B 2=C 3=D 5=F 6=W)",
                     static_cast<unsigned long long>(w));
    }
    return static_cast<YcsbWorkload>(w);
}

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
        return phaseUnits(sc.policies, 1200000, 60000,
                          promoteListWorkload(ctx));
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        const auto workload = promoteListWorkload(ctx);
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
    sc.expand = [sc](const RunContext &) {
        return phaseUnits(sc.policies, 1200000, 60000);
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
            speedupSweepScenario(
                {"ablation_ratio",
                 "Ablation D4: DRAM:PM capacity ratio sweep",
                 "Ablation D4: DRAM:PM ratio sweep (YCSB-A, fixed "
                 "footprint)",
                 "ratio", 6, "ratio",
                 "the dynamic-tiering advantage grows as DRAM becomes "
                 "scarcer, until DRAM is too small to hold the hot set.",
                 1000000, 50000, ratioPoints}),
            speedupSweepScenario(
                {"ablation_llc", "Ablation: LLC size vs tiering benefit",
                 "Ablation: LLC size vs tiering benefit (YCSB-A)", "LLC",
                 8, "llc",
                 "the larger the LLC relative to the hot band, the "
                 "smaller the benefit of page placement.",
                 800000, 50000, llcPoints})};
}

}  // namespace harness
}  // namespace mclock
