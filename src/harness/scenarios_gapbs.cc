/**
 * @file
 * Graph-workload scenarios: Fig. 6 (GAPBS kernels under each tiering
 * policy) and Fig. 7 (Memory-mode comparison). At the default seed every
 * unit uses the sub-seeds the checked-in golden fixtures were generated
 * with.
 */

#include <map>

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

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
    sc.policies = policies::tieredPolicyNames();
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            for (Kernel k : kKernels) {
                const std::string name =
                    policy + "/" + workloads::gapbs::kernelName(k);
                units.push_back(
                    {name, [policy, k, ctx](const RunContext &) {
                        const auto cfg = fig06Config(ctx);
                        sim::MachineConfig machine = ctx.golden
                                                         ? goldenGapbsMachine()
                                                         : gapbsMachine();
                        machine.seed = ctx.seed;
                        applyStatsContext(machine, ctx);
                        RunRecord rec;
                        sim::Simulator sim(machine);
                        sim.setPolicy(policies::makePolicy(
                            policy, benchPolicyOptions()));
                        workloads::gapbs::GapbsDriver driver(sim, cfg);
                        const auto r = driver.run(k);
                        rec.metrics["seconds"] = r.avgTrialSeconds();
                        checkRunInvariants(sim, rec);
                        return rec;
                    }});
            }
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records) {
        ScenarioOutput out = mergeRecords(sc.expand(ctx), records);
        out.text.clear();
        const auto cfg = fig06Config(ctx);
        appendf(out.text,
                "=== Fig. 6: GAPBS avg execution time per trial, "
                "normalised to static tiering (lower is better) ===\n");
        appendf(out.text, "kron scale=%u degree=%u trials=%u\n",
                cfg.scale, cfg.degree, cfg.trials);
        appendf(out.text, "%-12s", "policy");
        for (Kernel k : kKernels)
            appendf(out.text, " %8s", workloads::gapbs::kernelName(k));
        appendf(out.text, "\n");

        CsvWriter csv;
        std::vector<std::string> header{"policy"};
        for (Kernel k : kKernels)
            header.push_back(workloads::gapbs::kernelName(k));
        csv.writeHeader(header);

        std::map<std::size_t, double> baseline;
        for (std::size_t p = 0; p < sc.policies.size(); ++p) {
            appendf(out.text, "%-12s", sc.policies[p].c_str());
            std::vector<std::string> row{sc.policies[p]};
            for (std::size_t k = 0; k < kKernels.size(); ++k) {
                const double secs =
                    records[p * kKernels.size() + k].metrics.at(
                        "seconds");
                if (sc.policies[p] == "static")
                    baseline[k] = secs;
                const double norm = secs / baseline[k];
                appendf(out.text, " %8.3f", norm);
                row.push_back(std::to_string(norm));
            }
            appendf(out.text, "\n");
            csv.writeRow(row);
        }
        appendf(out.text,
                "\nwrote fig06_gapbs_tiering.csv (execution time "
                "normalised to static)\n");
        out.artifacts.push_back({"fig06_gapbs_tiering.csv", csv.str()});
        return out;
    };
    return sc;
}

// --- Fig. 7 -------------------------------------------------------------

/** The three memory organisations compared in Fig. 7. */
struct Fig07Profiles
{
    sim::MachineConfig tiered;   ///< DRAM+PM, OS-managed
    sim::MachineConfig pmOnly;   ///< PM only; DRAM is the HW cache
    sim::MachineConfig gTiered;  ///< GAPBS-sized tiered machine
    sim::MachineConfig gPm;      ///< GAPBS-sized PM-only machine
    workloads::YcsbConfig ycsb;
    workloads::gapbs::GapbsConfig pr;
    policies::PolicyOptions opts;   ///< YCSB options (dramCache set)
    policies::PolicyOptions gOpts;  ///< GAPBS options (dramCache set)
};

Fig07Profiles
fig07Profiles(const RunContext &ctx)
{
    Fig07Profiles p;
    const std::uint64_t ops =
        ctx.param("ops", ctx.golden ? 40000 : 1200000);
    if (ctx.golden) {
        p.tiered.nodes = {{TierKind::Dram, 4_MiB},
                          {TierKind::Pmem, 24_MiB}};
        p.tiered.cache.sizeBytes = 64_KiB;
        p.tiered.metricsWindow = 20_ms;
        p.pmOnly = p.tiered;
        p.pmOnly.nodes = {{TierKind::Pmem, 24_MiB}};
        p.ycsb.recordCount = 16000;  // ~16 MiB items vs 4 MiB DRAM
        p.gTiered = goldenGapbsMachine();
        p.gTiered.nodes = {{TierKind::Dram, 2_MiB},
                           {TierKind::Pmem, 12_MiB}};
        p.gPm = p.gTiered;
        p.gPm.nodes = {{TierKind::Pmem, 12_MiB}};
        p.pr = goldenGapbsConfig();
        p.pr.prIters = 4;
    } else {
        p.tiered = memModeTieredMachine();
        p.pmOnly = memModePmMachine();
        // Workload sized ~4x DRAM (paper: Memory-mode uses all DRAM as
        // cache, so a competitive comparison needs footprint >> cache).
        p.ycsb.recordCount = 60000;  // ~64 MiB items vs 16 MiB DRAM
        p.gTiered = gapbsMachine();
        p.gTiered.nodes = {{TierKind::Dram, 8_MiB},
                           {TierKind::Pmem, 48_MiB}};
        p.gPm = p.gTiered;
        p.gPm.nodes = {{TierKind::Pmem, 48_MiB}};
        p.pr.scale = 16;  // footprint ~4x the 8 MiB DRAM-equivalent
        p.pr.degree = 20;
        p.pr.trials = 2;
        p.pr.prIters = 6;
    }
    p.ycsb.valueBytes = 1024;
    p.ycsb.opsPerWorkload = ops;
    p.ycsb.seed = ctx.derivedSeed(1, p.ycsb.seed);
    p.tiered.seed = p.pmOnly.seed = ctx.seed;
    p.gTiered.seed = p.gPm.seed = ctx.seed;
    applyStatsContext(p.tiered, ctx);
    applyStatsContext(p.pmOnly, ctx);
    applyStatsContext(p.gTiered, ctx);
    applyStatsContext(p.gPm, ctx);
    p.opts = benchPolicyOptions();
    p.opts.dramCacheBytes = p.tiered.tierBytes(TierKind::Dram);
    p.gOpts = benchPolicyOptions();
    p.gOpts.dramCacheBytes = p.gTiered.tierBytes(TierKind::Dram);
    return p;
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
    sc.policies = {"static", "multiclock", "memory-mode"};
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const std::string policy : kFig07Policies) {
            units.push_back({"ycsb_a/" + policy,
                             [policy, ctx](const RunContext &) {
                const auto p = fig07Profiles(ctx);
                const auto &machine =
                    policy == "memory-mode" ? p.pmOnly : p.tiered;
                RunRecord rec;
                sim::Simulator sim(machine);
                sim.setPolicy(policies::makePolicy(policy, p.opts));
                workloads::YcsbDriver driver(sim, p.ycsb);
                driver.load();
                std::map<std::string, double> tput;
                for (const auto &r : driver.runPaperSequence())
                    tput[r.workload] = r.throughputOpsPerSec();
                rec.metrics["tput_a"] = tput.at("A");
                checkRunInvariants(sim, rec);
                return rec;
            }});
        }
        for (const std::string policy : kFig07Policies) {
            units.push_back({"pagerank/" + policy,
                             [policy, ctx](const RunContext &) {
                const auto p = fig07Profiles(ctx);
                const auto &machine =
                    policy == "memory-mode" ? p.gPm : p.gTiered;
                RunRecord rec;
                sim::Simulator sim(machine);
                sim.setPolicy(policies::makePolicy(policy, p.gOpts));
                workloads::gapbs::GapbsDriver driver(sim, p.pr);
                rec.metrics["seconds"] =
                    driver.run(Kernel::PR).avgTrialSeconds();
                checkRunInvariants(sim, rec);
                return rec;
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records) {
        ScenarioOutput out = mergeRecords(sc.expand(ctx), records);
        out.text.clear();
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
        return out;
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
