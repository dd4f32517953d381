/**
 * @file
 * Graph-workload scenarios: Fig. 6 (GAPBS kernels under each tiering
 * policy) and Fig. 7 (Memory-mode comparison). At the default seed every
 * unit uses the sub-seeds the checked-in golden fixtures were generated
 * with.
 */

#include <functional>
#include <memory>

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

RunRecord
runWorkload(const RunContext &ctx, const HostSpec &host,
            const GapbsUnit &unit)
{
    return runHost(ctx, host, [&](sim::Simulator &sim, RunRecord &rec) {
        auto driver =
            std::make_unique<workloads::gapbs::GapbsDriver>(sim, unit.graph);
        rec.metrics["seconds"] = driver->run(unit.kernel).avgTrialSeconds();
        if (unit.keys == GapbsKeys::Tiers) {
            addMigrationMetrics(sim.vmstat(), rec);
            addTierMetrics(sim, rec);
        } else if (unit.keys == GapbsKeys::Faults) {
            addFaultMetrics(sim, rec);
        }
        return driver;
    });
}

namespace {

using workloads::gapbs::Kernel;

const std::vector<Kernel> kKernels{Kernel::BFS, Kernel::SSSP,
                                   Kernel::PR,  Kernel::CC,
                                   Kernel::BC,  Kernel::TC};

workloads::gapbs::GapbsConfig
fig06Config(const RunContext &ctx)
{
    auto cfg = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    cfg.trials = static_cast<unsigned>(ctx.param("trials", cfg.trials));
    return cfg;
}

// --- Fig. 6 -------------------------------------------------------------

Scenario
fig06Scenario()
{
    Scenario sc;
    sc.name = "fig06";
    sc.title = "Fig. 6: GAPBS execution time normalised to static "
               "tiering";
    sc.workload = "gapbs";
    sc.params = {{"trials", 1, 1000}};
    sc.policies = policies::tieredPolicyNames();
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            for (Kernel k : kKernels) {
                units.push_back(
                    {policy + "/" + workloads::gapbs::kernelName(k),
                     {{policy, ctx.golden ? goldenGapbsMachine()
                                          : gapbsMachine()},
                      GapbsUnit{fig06Config(ctx), k}}});
            }
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records,
                     ScenarioOutput &out) {
        const auto cfg = fig06Config(ctx);
        appendf(out.text,
                "=== Fig. 6: GAPBS avg execution time per trial, "
                "normalised to static tiering (lower is better) ===\n");
        appendf(out.text, "kron scale=%u degree=%u trials=%u\n",
                cfg.scale, cfg.degree, cfg.trials);
        std::vector<std::string> columns;
        for (Kernel k : kKernels)
            columns.push_back(workloads::gapbs::kernelName(k));
        const std::string csv = normalisedToStatic(
            out.text, sc.policies, columns,
            [&](std::size_t p, std::size_t k) {
                return records[p * kKernels.size() + k].metrics.at(
                    "seconds");
            });
        appendf(out.text,
                "\nwrote fig06_gapbs_tiering.csv (execution time "
                "normalised to static)\n");
        out.artifacts.push_back({"fig06_gapbs_tiering.csv", csv});
    };
    return sc;
}

// --- Fig. 7 -------------------------------------------------------------

/**
 * @p policy's Fig. 7 host on @p tiered (DRAM+PM, OS-managed).
 * Memory-mode runs on the same machine without its DRAM node, with
 * that DRAM as the hardware cache.
 */
HostSpec
fig07Host(const std::string &policy, const sim::MachineConfig &tiered)
{
    HostSpec host{policy, tiered};
    host.opts.dramCacheBytes = tiered.tierBytes(TierKind::Dram);
    if (policy == "memory-mode")
        host.machine.nodes = {tiered.nodes.back()};
    return host;
}

constexpr const char *kFig07Policies[] = {"static", "multiclock",
                                          "memory-mode"};

Scenario
fig07Scenario()
{
    Scenario sc;
    sc.name = "fig07";
    sc.title = "Fig. 7: Memory-mode comparison (YCSB + PageRank)";
    sc.workload = "ycsb+gapbs";
    sc.params = {kOpsParam};
    sc.policies = {"static", "multiclock", "memory-mode"};
    sc.expand = [](const RunContext &ctx) {
        sim::MachineConfig ycsbTiered = memModeTieredMachine();
        if (ctx.golden) {
            ycsbTiered.nodes = {{TierKind::Dram, 4_MiB},
                                {TierKind::Pmem, 24_MiB}};
            ycsbTiered.cache.sizeBytes = 64_KiB;
            ycsbTiered.metricsWindow = 20_ms;
        }
        // Workload sized ~4x DRAM (paper: Memory-mode uses all DRAM as
        // cache, so a competitive comparison needs footprint >> cache):
        // ~16 MiB golden, ~64 MiB full.
        auto ycsb = ycsbWorkload(ctx, 1200000, 40000, 1);
        ycsb.recordCount = ctx.golden ? 16000 : 60000;

        sim::MachineConfig prTiered =
            ctx.golden ? goldenGapbsMachine() : gapbsMachine();
        prTiered.nodes = {{TierKind::Dram, ctx.golden ? 2_MiB : 8_MiB},
                          {TierKind::Pmem, ctx.golden ? 12_MiB : 48_MiB}};
        workloads::gapbs::GapbsConfig pr;
        if (ctx.golden) {
            pr = goldenGapbsConfig();
            pr.prIters = 4;
        } else {
            pr.scale = 16;  // footprint ~4x the 8 MiB DRAM
            pr.degree = 20;
            pr.trials = 2;
            pr.prIters = 6;
        }

        std::vector<RunUnit> units;
        for (const std::string policy : kFig07Policies) {
            units.push_back({"ycsb_a/" + policy,
                             {fig07Host(policy, ycsbTiered),
                              YcsbUnit{ycsb, kPaperSequence,
                                       YcsbKeys::FirstTput}}});
        }
        for (const std::string policy : kFig07Policies) {
            units.push_back({"pagerank/" + policy,
                             {fig07Host(policy, prTiered),
                              GapbsUnit{pr, Kernel::PR}}});
        }
        return units;
    };
    sc.reduce = [](const RunContext &,
                   const std::vector<RunRecord> &records,
                   ScenarioOutput &out) {
        const double staticTput = records[0].metrics.at("tput_a");
        const double mclockTput = records[1].metrics.at("tput_a");
        const double mmTput = records[2].metrics.at("tput_a");
        const double staticPr = records[3].metrics.at("seconds");
        const double mclockPr = records[4].metrics.at("seconds");
        const double mmPr = records[5].metrics.at("seconds");

        appendf(out.text,
                "=== Fig. 7(a): YCSB-A throughput, workload ~4x DRAM, "
                "normalised to static ===\n");
        appendf(out.text, "%-12s %8.3f\n", "static", 1.0);
        appendf(out.text, "%-12s %8.3f\n", "multiclock",
                mclockTput / staticTput);
        appendf(out.text, "%-12s %8.3f\n", "memory-mode",
                mmTput / staticTput);

        appendf(out.text,
                "\n=== Fig. 7(b): PageRank execution time, normalised "
                "to static (lower is better) ===\n");
        appendf(out.text, "%-12s %8.3f\n", "static", 1.0);
        appendf(out.text, "%-12s %8.3f\n", "multiclock",
                mclockPr / staticPr);
        appendf(out.text, "%-12s %8.3f\n", "memory-mode",
                mmPr / staticPr);

        CsvWriter csv;
        csv.writeHeader({"experiment", "static", "multiclock",
                         "memory_mode"});
        csv.writeRow({"ycsb_a_norm_tput", "1.0",
                      std::to_string(mclockTput / staticTput),
                      std::to_string(mmTput / staticTput)});
        csv.writeRow({"pagerank_norm_time", "1.0",
                      std::to_string(mclockPr / staticPr),
                      std::to_string(mmPr / staticPr)});
        appendf(out.text, "\nwrote fig07_memory_mode.csv\n");
        out.artifacts.push_back({"fig07_memory_mode.csv", csv.str()});
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeGapbsScenarios()
{
    return {fig06Scenario(), fig07Scenario()};
}

}  // namespace harness
}  // namespace mclock
